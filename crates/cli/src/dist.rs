//! The CLI side of `--shards N`: glue between the campaign commands
//! (`fuzz run`, `corpus`, `chaos`) and the crates/dist coordinator.
//!
//! Each campaign kind provides three things:
//!
//! * a **coordinator** entry point that maps the campaign onto an
//!   integer interval (seeds, program indices, plan indices), spawns
//!   the fleet and merges the returned tiles into the *same* final
//!   report the single-process path prints — byte-identical stdout for
//!   `fuzz run` and `chaos`, modulo wall-clock for `corpus`;
//! * a **worker** entry point (the hidden `--dist-worker K` flag) that
//!   loops over leases, heartbeating between items so truncation
//!   (work-stealing, cancel, halt) lands at the next item boundary;
//! * a **recovery** hook mapping a dead worker's lease to the tile its
//!   last crash-safe checkpoint covers (`fuzz` only — corpus and chaos
//!   leases are cheap enough to re-run from the lease start).
//!
//! SIGINT/SIGTERM flow through the same truncation path as a steal: the
//! coordinator truncates every active lease, collects the authoritative
//! partial tiles, persists the contiguous frontier (fuzz) and exits
//! with the budget-class code 3.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use air_core::question::load_corpus;
use air_core::DomainKind;
use air_dist::{run_distributed, run_worker, DistConfig, DistHooks, DistStats, LeaseDone, Tile};
use air_fuzz::checkpoint::{self, CheckpointState};
use air_lattice::Governor;
use air_metrics::MetricsRegistry;
use air_trace::Tracer;

use crate::args::{ChaosTask, CorpusTask, DistOpts};
use crate::run::{usage, AirError, Outcome, TraceSession};
use crate::signal::CancelWatch;

/// How many cases a fuzz worker runs between heartbeats. Truncation is
/// still checked every case (the cap read is one atomic load); only the
/// progress *frame* is rate-limited.
const FUZZ_HEARTBEAT_EVERY: u64 = 8;

/// Builds the fleet envelope shared by all three campaign kinds.
fn fleet_config(dist: &DistOpts, base: u64, items: u64) -> DistConfig {
    let defaults = DistConfig::default();
    DistConfig {
        shards: dist.shards,
        base,
        items,
        lease_items: dist.lease,
        hang_timeout: if dist.hang_ms > 0 {
            Duration::from_millis(dist.hang_ms)
        } else {
            defaults.hang_timeout
        },
        kill_workers: dist.kill_workers,
        kill_seed: dist.kill_seed,
        ..defaults
    }
}

fn self_exe() -> Result<PathBuf, AirError> {
    std::env::current_exe()
        .map_err(|e| AirError::Internal(format!("cannot locate own executable: {e}")))
}

fn dist_error(e: &air_dist::DistError) -> AirError {
    AirError::Internal(format!("distributed campaign failed: {e}"))
}

/// Starts the signal watcher that flips a coordinator cancel token,
/// which the coordinator reads between events.
fn cancel_watch() -> (CancelWatch, Arc<AtomicBool>) {
    let token = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&token);
    let watch = CancelWatch::start(move || flag.store(true, Ordering::SeqCst));
    (watch, token)
}

/// Runs a corpus or chaos campaign of `items` over a fleet whose
/// workers start as `argv --dist-worker K`, and returns the rows of its
/// tiles in item order with the item count covered. A lost lease re-runs
/// from its start: both campaigns are seed-deterministic and cheap per
/// item, so checkpointing every row would cost more. An incomplete fleet
/// (a signal) is a budget-class stop; a tile whose payload does not
/// parse into exactly its items is a worker bug.
fn run_rows<T>(
    dist: &DistOpts,
    items: u64,
    argv: Vec<String>,
    (what, unit): (&str, &str),
    parse: impl Fn(&str) -> Option<Vec<T>>,
) -> Result<(Vec<T>, u64), AirError> {
    let (watch, token) = cancel_watch();
    let hooks = DistHooks {
        program: self_exe()?,
        args_for: Box::new(move |shard| {
            let mut v = argv.clone();
            v.extend(["--dist-worker".to_string(), shard.to_string()]);
            v
        }),
        recover: Box::new(|_, _, _| None),
        tracer: Tracer::disabled(),
        metrics: MetricsRegistry::new(),
        frame_log: dist.frame_log.as_ref().map(PathBuf::from),
        cancel: Some(token),
        halt_after: None,
    };
    let fleet = run_distributed(fleet_config(dist, 0, items), hooks).map_err(|e| dist_error(&e))?;
    drop(watch);
    eprint_fleet(&fleet.stats);
    if !fleet.complete {
        eprintln!(
            "{what} sweep interrupted; {} of {items} {unit}(s) completed",
            fleet.covered
        );
        return Err(AirError::Budget {
            phase: format!("{what}.sweep"),
            spent: fleet.covered,
            reason: "cancelled".to_string(),
        });
    }
    let mut rows = Vec::new();
    for t in &fleet.tiles {
        let tile = parse(&t.payload).ok_or_else(|| {
            AirError::Internal(format!(
                "malformed {what} lease payload for tile [{}, {})",
                t.lo, t.hi
            ))
        })?;
        if tile.len() as u64 != t.hi - t.lo {
            return Err(AirError::Internal(format!(
                "{what} tile [{}, {}) carried {} row(s)",
                t.lo,
                t.hi,
                tile.len()
            )));
        }
        rows.extend(tile);
    }
    Ok((rows, fleet.covered))
}

/// The fleet summary goes to stderr: stdout must stay byte-identical to
/// the single-process report.
fn eprint_fleet(stats: &DistStats) {
    eprintln!(
        "dist fleet: {} worker(s) spawned, {} lease(s) issued, {} stolen, {} worker(s) lost, {} restarted, {} killed",
        stats.workers_spawned,
        stats.leases_issued,
        stats.leases_stolen,
        stats.workers_lost,
        stats.workers_restarted,
        stats.kills
    );
}

// ---------------------------------------------------------------- fuzz

/// Everything `fuzz run --shards N` needs, mirroring the single-process
/// flag set.
pub(crate) struct FuzzDist {
    pub seed: u64,
    pub cases: u64,
    pub oracle: Option<String>,
    pub corpus_dir: String,
    pub shrink: bool,
    pub stats_json: bool,
    pub trace: Option<String>,
    pub checkpoint: Option<String>,
    pub resume: bool,
    pub halt_after: Option<u64>,
    pub dist: DistOpts,
}

/// Per-shard checkpoint file (`<base>.shard-<K>`), the crash-recovery
/// state a SIGKILLed worker leaves behind.
fn shard_checkpoint(base: &str, shard: u64) -> PathBuf {
    PathBuf::from(format!("{base}.shard-{shard}"))
}

/// Crash recovery for a fuzz lease: salvage the dead shard's last
/// checkpoint when it covers a prefix of the lost lease.
fn fuzz_recover(checkpoint: Option<String>, oracle: Option<String>) -> air_dist::RecoverFn {
    Box::new(move |shard, lo, hi| {
        let base = checkpoint.as_ref()?;
        let path = shard_checkpoint(base, shard);
        let text = std::fs::read_to_string(&path).ok()?;
        // Consume the file either way: a stale checkpoint must not leak
        // into a later recovery of a different lease.
        let _ = std::fs::remove_file(&path);
        let lease_opts = air_fuzz::FuzzOptions {
            base_seed: lo,
            cases: hi - lo,
            oracle: oracle.clone(),
            ..air_fuzz::FuzzOptions::default()
        };
        let st = checkpoint::parse(&text, &lease_opts)?;
        (st.next_seed > lo && st.next_seed <= hi).then_some((st.next_seed, text))
    })
}

/// Folds sorted disjoint tiles into one [`CheckpointState`], stopping at
/// the first gap (after a cancel/halt, ranges beyond a lost lease are
/// not resumable from a linear checkpoint — their work is re-run on
/// resume, never double-counted). Returns the merged prefix and whether
/// the fold consumed every tile.
fn merge_fuzz_tiles(seed: u64, tiles: &[Tile]) -> Result<(CheckpointState, bool), AirError> {
    let mut state = CheckpointState {
        next_seed: seed,
        built: 0,
        build_skips: 0,
        eval_skips: 0,
        violations: 0,
        disagreements: 0,
        rows: std::collections::BTreeMap::new(),
        failure_seeds: Vec::new(),
    };
    for (consumed, t) in tiles.iter().enumerate() {
        if t.lo != state.next_seed {
            return Ok((state, consumed == tiles.len()));
        }
        let st = checkpoint::parse_any(&t.payload).ok_or_else(|| {
            AirError::Internal(format!(
                "malformed lease payload for tile [{}, {})",
                t.lo, t.hi
            ))
        })?;
        state.built += st.built;
        state.build_skips += st.build_skips;
        state.eval_skips += st.eval_skips;
        state.violations += st.violations;
        state.disagreements += st.disagreements;
        for (name, row) in st.rows {
            let agg = state.rows.entry(name).or_default();
            agg.runs += row.runs;
            agg.violations += row.violations;
            agg.skips += row.skips;
        }
        // Tiles are sorted and failure seeds live inside their tile's
        // range, so plain concatenation keeps them ascending.
        state.failure_seeds.extend(st.failure_seeds);
        state.next_seed = t.hi;
    }
    Ok((state, true))
}

/// `fuzz run --shards N` — the coordinator. Maps the campaign onto the
/// seed interval, shards it over a worker fleet and merges the tiles
/// into a report byte-identical to the single-process run.
pub(crate) fn fuzz_dist(a: FuzzDist) -> Result<Outcome, AirError> {
    // The coordinator replays failing seeds (rebuild_failures) itself,
    // so the injected-panic hook applies here too.
    air_resilience::install_quiet_fault_hook();
    let session = TraceSession::open(a.trace.as_deref(), false)?;
    let identity = air_fuzz::FuzzOptions {
        base_seed: a.seed,
        cases: a.cases,
        oracle: a.oracle.clone(),
        shrink: a.shrink,
        tracer: Some(session.tracer()),
        ..air_fuzz::FuzzOptions::default()
    };
    let end = a.seed.saturating_add(a.cases);
    let mut tiles: Vec<Tile> = Vec::new();
    let mut base = a.seed;
    if a.resume {
        if let Some(path) = &a.checkpoint {
            if let Ok(Some(text)) = air_resilience::checkpoint::load(Path::new(path)) {
                if let Some(st) = checkpoint::parse(&text, &identity) {
                    if st.next_seed > a.seed && st.next_seed <= end {
                        base = st.next_seed;
                        tiles.push(Tile {
                            lo: a.seed,
                            hi: base,
                            payload: text,
                        });
                    }
                }
            }
        }
    }
    let (watch, token) = cancel_watch();
    let hooks = DistHooks {
        program: self_exe()?,
        args_for: Box::new({
            let oracle = a.oracle.clone();
            let ckpt = a.checkpoint.clone();
            move |shard| {
                // Shrinking only affects failure rendering, which the
                // coordinator redoes after the merge; workers skip it.
                let mut v = [
                    "fuzz",
                    "run",
                    "--dist-worker",
                    &shard.to_string(),
                    "--no-shrink",
                ]
                .map(String::from)
                .to_vec();
                let flags = [("--oracle", &oracle), ("--checkpoint", &ckpt)];
                for (flag, value) in flags {
                    if let Some(value) = value {
                        v.extend([flag.to_string(), value.clone()]);
                    }
                }
                v
            }
        }),
        recover: fuzz_recover(a.checkpoint.clone(), a.oracle.clone()),
        tracer: session.tracer(),
        metrics: MetricsRegistry::new(),
        frame_log: a.dist.frame_log.as_ref().map(PathBuf::from),
        cancel: Some(token),
        // `--halt-after` counts campaign cases including a resumed
        // prefix; the coordinator counts items in `[base, end)`.
        halt_after: a.halt_after.map(|h| h.saturating_sub(base - a.seed)),
    };
    let fleet = run_distributed(fleet_config(&a.dist, base, end - base), hooks)
        .map_err(|e| dist_error(&e))?;
    let interrupted = watch.finish();
    eprint_fleet(&fleet.stats);
    tiles.extend(fleet.tiles);
    let (state, gap_free) = merge_fuzz_tiles(a.seed, &tiles)?;
    if let Some(ckpt) = &a.checkpoint {
        // Orphaned shard checkpoints (a worker killed after the final
        // merge no longer owes recovery state) are stale either way.
        for shard in 0..a.dist.shards {
            let _ = std::fs::remove_file(shard_checkpoint(ckpt, shard));
        }
    }
    let complete = fleet.complete && gap_free && state.next_seed == end;
    if !complete {
        let done = state.next_seed - a.seed;
        if let Some(path) = &a.checkpoint {
            let text = checkpoint::render_state(&state, a.seed, a.cases, a.oracle.as_deref());
            air_resilience::atomic_write(Path::new(path), &text)
                .map_err(|e| usage(format!("cannot write checkpoint `{path}`: {e}")))?;
        }
        session.finish()?;
        if interrupted {
            eprintln!("interrupted after {done} case(s); checkpoint saved, restart with --resume");
            return Err(AirError::Budget {
                phase: "fuzz.campaign".to_string(),
                spent: done,
                reason: "cancelled".to_string(),
            });
        }
        println!("halted after {done} case(s); checkpoint saved, restart with --resume");
        return Ok(Outcome::Positive);
    }
    let mut report = air_fuzz::CampaignReport {
        base_seed: a.seed,
        cases: a.cases,
        built: state.built,
        build_skips: state.build_skips,
        eval_skips: state.eval_skips,
        violations: state.violations,
        disagreements: state.disagreements,
        oracle_rows: state.rows,
        failures: Vec::new(),
    };
    // Failures are replayed (and minimized) from their seeds, exactly
    // like a single-process resume — both are pure functions of the
    // same seeds, which is what makes the merged report byte-identical.
    air_fuzz::rebuild_failures(&mut report, &state.failure_seeds, &identity);
    if let Some(path) = &a.checkpoint {
        let _ = std::fs::remove_file(path);
    }
    let outcome = crate::run::print_fuzz_report(&report, &a.corpus_dir, a.stats_json)?;
    session.finish()?;
    Ok(outcome)
}

/// `fuzz run --dist-worker K` — the worker. Each lease runs as its own
/// mini-campaign over `[lo, hi)` with the shard's crash-safe checkpoint
/// file; the lease payload *is* the final checkpoint.
pub(crate) fn fuzz_worker(
    shard: u64,
    oracle: Option<String>,
    checkpoint_base: Option<String>,
) -> Result<Outcome, AirError> {
    air_resilience::install_quiet_fault_hook();
    let ckpt = checkpoint_base.map(|base| shard_checkpoint(&base, shard));
    let result = run_worker(shard, std::io::stdin(), std::io::stdout(), |ctx| {
        let watch = air_fuzz::CampaignWatch::new();
        let observer = watch.clone();
        let hb = ctx.clone();
        let lo = ctx.lo;
        let watch = watch.with_progress(move |done| {
            let cap = if done % FUZZ_HEARTBEAT_EVERY == 0 {
                hb.heartbeat(lo + done)
            } else {
                hb.cap()
            };
            if cap < hb.hi {
                observer.truncate(cap.saturating_sub(lo));
            }
        });
        let opts = air_fuzz::FuzzOptions {
            base_seed: ctx.lo,
            cases: ctx.hi - ctx.lo,
            oracle: oracle.clone(),
            shrink: false,
            checkpoint: ckpt.clone(),
            resume: false,
            watch: Some(watch),
            ..air_fuzz::FuzzOptions::default()
        };
        let report = air_fuzz::run_campaign(&opts);
        let stopped = ctx.lo + report.built + report.build_skips;
        let payload = checkpoint::render(&report, stopped, &opts);
        Ok(LeaseDone { stopped, payload })
    });
    // A cleanly exiting worker owes no recovery state.
    if let Some(p) = &ckpt {
        let _ = std::fs::remove_file(p);
    }
    result
        .map(|()| Outcome::Positive)
        .map_err(AirError::Internal)
}

// -------------------------------------------------------------- corpus

fn corpus_worker_argv(task: &CorpusTask) -> Vec<String> {
    let mut v: Vec<String> = [
        "corpus",
        "--dir",
        &task.dir,
        "--domain",
        task.domain.name(),
        "--strategy",
        task.strategy.name(),
        "--engine",
        task.engine.name(),
    ]
    .map(String::from)
    .to_vec();
    if task.uncached {
        v.push("--uncached".to_string());
    }
    v
}

/// `corpus --shards N` — the coordinator. Items are program indices in
/// sorted file order; tiles concatenate back into file order, so rows
/// print exactly where the in-process sweep would put them.
pub(crate) fn corpus_dist(task: &CorpusTask) -> Result<Outcome, AirError> {
    let programs = load_corpus(&task.dir, task.domain)?;
    let items = programs.len() as u64;
    let shards = task.dist.shards.min(items.max(1));
    crate::run::print_corpus_banner(task, programs.len(), format!("{shards} shard(s)"));
    let started = std::time::Instant::now();
    let parse = |payload: &str| crate::run::parse_corpus_rows(payload, &task.dir);
    let argv = corpus_worker_argv(task);
    let (reports, covered) = run_rows(&task.dist, items, argv, ("corpus", "program"), parse)?;
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    crate::run::print_corpus_rows(task, &reports, total_ms);
    crate::run::corpus_outcome(&reports, covered)
}

/// `corpus --dist-worker K` — the worker. Verifies one program per
/// heartbeat; a truncated lease stops at the next program boundary.
pub(crate) fn corpus_worker(shard: u64, task: &CorpusTask) -> Result<Outcome, AirError> {
    let programs = load_corpus(&task.dir, task.domain)?;
    let dir = task.dir.clone();
    let result = run_worker(shard, std::io::stdin(), std::io::stdout(), move |ctx| {
        if ctx.hi > programs.len() as u64 {
            return Err(format!(
                "lease [{}, {}) beyond corpus of {} program(s)",
                ctx.lo,
                ctx.hi,
                programs.len()
            ));
        }
        let mut rows = Vec::new();
        let mut next = ctx.lo;
        while next < ctx.heartbeat(next) {
            let (name, q) = &programs[next as usize];
            let (tracer, governor) = (Tracer::disabled(), Governor::cancellable());
            rows.push(crate::run::run_corpus_program(
                name, q, task, tracer, governor,
            ));
            next += 1;
        }
        Ok(LeaseDone {
            stopped: next,
            payload: crate::run::render_corpus_checkpoint(&dir, &rows),
        })
    });
    result
        .map(|()| Outcome::Positive)
        .map_err(AirError::Internal)
}

// --------------------------------------------------------------- chaos

/// `chaos --shards N` — the coordinator. Items are plan indices; plan
/// rows carry no wall-clock data, so the merged report (stdout and
/// `--stats-json`) is byte-identical to the single-process sweep even
/// under worker kills.
pub(crate) fn chaos_dist(task: &ChaosTask) -> Result<Outcome, AirError> {
    // The coordinator reads every header before it starts a worker, so a
    // bad corpus fails here exactly as the single-process run does; the
    // workers do the heavy concrete-oracle preparation.
    let programs = load_corpus(&task.dir, DomainKind::Int)?.len();
    let fuel = task.fuel.unwrap_or(crate::chaos::DEFAULT_CHAOS_FUEL);
    crate::chaos::print_banner(task, programs, fuel);
    let seed = task.seed.to_string();
    let mut argv = ["chaos", "--dir", &task.dir, "--seed", &seed]
        .map(String::from)
        .to_vec();
    if let Some(f) = task.fuel {
        argv.extend(["--fuel".to_string(), f.to_string()]);
    }
    let parse = crate::chaos::parse_rows;
    let (rows, _) = run_rows(&task.dist, task.plans, argv, ("chaos", "plan"), parse)?;
    crate::chaos::finish_chaos(task, fuel, programs, &rows)
}

/// `chaos --dist-worker K` — the worker. One fault plan per heartbeat.
pub(crate) fn chaos_worker(shard: u64, task: &ChaosTask) -> Result<Outcome, AirError> {
    air_resilience::install_quiet_fault_hook();
    let programs = crate::chaos::prepare_corpus(&task.dir)?;
    let fuel = task.fuel.unwrap_or(crate::chaos::DEFAULT_CHAOS_FUEL);
    let seed = task.seed;
    let result = run_worker(shard, std::io::stdin(), std::io::stdout(), move |ctx| {
        let mut rows = Vec::new();
        let mut next = ctx.lo;
        while next < ctx.heartbeat(next) {
            rows.push(crate::chaos::run_plan(
                &programs,
                seed.saturating_add(next),
                fuel,
                None,
            ));
            next += 1;
        }
        Ok(LeaseDone {
            stopped: next,
            payload: crate::chaos::render_rows(&rows),
        })
    });
    result
        .map(|()| Outcome::Positive)
        .map_err(AirError::Internal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_fuzz::OracleRow;

    fn tile(lo: u64, hi: u64, rows: &[(&str, u64, u64, u64)], failures: &[u64]) -> Tile {
        let state = CheckpointState {
            next_seed: hi,
            built: hi - lo,
            build_skips: 0,
            eval_skips: 0,
            violations: rows.iter().map(|r| r.2).sum(),
            disagreements: 0,
            rows: rows
                .iter()
                .map(|(name, runs, violations, skips)| {
                    (
                        (*name).to_string(),
                        OracleRow {
                            runs: *runs,
                            violations: *violations,
                            skips: *skips,
                        },
                    )
                })
                .collect(),
            failure_seeds: failures.to_vec(),
        };
        Tile {
            lo,
            hi,
            payload: checkpoint::render_state(&state, lo, hi - lo, None),
        }
    }

    #[test]
    fn merge_folds_counters_rows_and_failures_in_order() {
        let tiles = vec![
            tile(10, 14, &[("soundness", 4, 1, 0)], &[12]),
            tile(
                14,
                20,
                &[("soundness", 6, 0, 1), ("progress", 2, 0, 0)],
                &[],
            ),
        ];
        let (state, gap_free) = merge_fuzz_tiles(10, &tiles).unwrap();
        assert!(gap_free);
        assert_eq!(state.next_seed, 20);
        assert_eq!(state.built, 10);
        assert_eq!(state.violations, 1);
        assert_eq!(state.rows["soundness"].runs, 10);
        assert_eq!(state.rows["soundness"].skips, 1);
        assert_eq!(state.rows["progress"].runs, 2);
        assert_eq!(state.failure_seeds, vec![12]);
    }

    #[test]
    fn merge_stops_at_the_first_gap() {
        let tiles = vec![
            tile(0, 4, &[], &[]),
            // Gap: [4, 6) is missing after a cancel.
            tile(6, 8, &[], &[]),
        ];
        let (state, gap_free) = merge_fuzz_tiles(0, &tiles).unwrap();
        assert!(!gap_free);
        assert_eq!(state.next_seed, 4, "frontier stops at the gap");
        assert_eq!(state.built, 4, "work beyond the gap is not counted");
    }

    #[test]
    fn merge_rejects_garbage_payloads() {
        let tiles = vec![Tile {
            lo: 0,
            hi: 4,
            payload: "not json".to_string(),
        }];
        assert!(merge_fuzz_tiles(0, &tiles).is_err());
    }

    #[test]
    fn fuzz_recover_validates_the_lease_identity() {
        let dir = std::env::temp_dir().join(format!("air-dist-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("ck").to_string_lossy().into_owned();
        let recover = fuzz_recover(Some(base.clone()), None);
        // No file: no salvage.
        assert!(recover(3, 0, 16).is_none());
        // A checkpoint for lease [0, 16) stopped at 9.
        let state = CheckpointState {
            next_seed: 9,
            built: 9,
            build_skips: 0,
            eval_skips: 0,
            violations: 0,
            disagreements: 0,
            rows: std::collections::BTreeMap::new(),
            failure_seeds: vec![],
        };
        let text = checkpoint::render_state(&state, 0, 16, None);
        std::fs::write(shard_checkpoint(&base, 3), &text).unwrap();
        let (stopped, payload) = recover(3, 0, 16).expect("salvage");
        assert_eq!(stopped, 9);
        assert_eq!(payload, text);
        // Consumed: a second recovery finds nothing.
        assert!(recover(3, 0, 16).is_none());
        // Mismatched lease bounds are rejected (stale file consumed).
        std::fs::write(shard_checkpoint(&base, 3), &text).unwrap();
        assert!(recover(3, 16, 32).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
