//! The coordinator: spawns worker processes, hands out leases, steals
//! from stragglers, survives worker death, and returns sorted disjoint
//! result tiles whose merge is independent of every scheduling choice.
//!
//! # Determinism argument
//!
//! The coordinator never computes campaign results itself — it only
//! partitions the integer interval `[base, base + items)` into tiles
//! and collects one payload per tile. Three invariants make the merged
//! report a pure function of the interval:
//!
//! 1. **Tiles are disjoint and exact.** A lease covers `[lo, hi)`; a
//!    worker's `result` reports the half-open prefix `[lo, stopped)` it
//!    actually ran, and only `[stopped, hi)` is ever reissued. The
//!    worker's `stopped` is authoritative, so a `truncate` that races
//!    past the sweep cannot double-cover or skip an item.
//! 2. **Recovery resumes at a checkpoint boundary.** When a worker
//!    dies, its tile is reconstructed from the shard's last crash-safe
//!    checkpoint (written through `atomic_write`, so it is either the
//!    previous complete checkpoint or the new one). Items after the
//!    checkpoint are re-run from scratch; items before it are never
//!    re-run, so side-effect-free sweeps produce identical counters.
//! 3. **The merge is a fold over sorted tiles.** [`DistOutcome::tiles`]
//!    come back sorted by `lo` and verified gap-free; callers fold
//!    payloads in that order. Scheduling (shard count, steal schedule,
//!    kill schedule) only changes *which process computed which tile*,
//!    never the tile boundaries' union or the fold order.
//!
//! Hence `--shards N` reports are byte-identical for every `N` and
//! under any worker-kill schedule — which CI enforces by diffing.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use air_resilience::SplitMix64;
use air_serve::{read_frame, DEFAULT_MAX_FRAME};
use air_trace::{EventKind, Tracer};

use crate::protocol::Frame;
use crate::worker::FrameWriter;

/// Shape of a distributed campaign: the interval, the fleet, and the
/// fault-tolerance envelope.
pub struct DistConfig {
    /// Number of worker processes to spawn (clamped to `items`).
    pub shards: u64,
    /// First item of the campaign interval.
    pub base: u64,
    /// Number of items; the interval is `[base, base + items)`.
    pub items: u64,
    /// Items per lease (0 = auto: `items / (shards * 4)`, clamped to
    /// `[1, 256]`), so each worker sees several leases and stragglers
    /// hold small ranges.
    pub lease_items: u64,
    /// A busy worker silent for this long is declared hung and killed.
    pub hang_timeout: Duration,
    /// Chaos axis: SIGKILL this many workers mid-campaign.
    pub kill_workers: u64,
    /// Seed for the deterministic kill schedule.
    pub kill_seed: u64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            shards: 2,
            base: 0,
            items: 0,
            lease_items: 0,
            hang_timeout: Duration::from_secs(30),
            kill_workers: 0,
            kill_seed: 0,
        }
    }
}

/// Restarts allowed per shard before it is abandoned.
const MAX_RESTARTS: u32 = 3;

/// Base delay before restarting a lost worker; doubles per restart of
/// that shard (deterministic exponential backoff).
const RESTART_BACKOFF: Duration = Duration::from_millis(50);

/// Minimum remaining items that make a straggler worth stealing from
/// (the thief gets at least half of this).
const STEAL_MIN: u64 = 4;

/// Crash-recovery hook: `(shard, lo, hi)` of a lost lease → salvaged
/// `(stopped, payload)` from the shard's last checkpoint, or `None`.
pub type RecoverFn = Box<dyn Fn(u64, u64, u64) -> Option<(u64, String)>>;

/// Campaign-specific glue the CLI provides.
pub struct DistHooks {
    /// Worker executable (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Full argv (minus program) for a given shard's worker process.
    pub args_for: Box<dyn Fn(u64) -> Vec<String>>,
    /// Crash recovery: given `(shard, lo, hi)` of the lost lease,
    /// return `(stopped, payload)` salvaged from the shard's last
    /// crash-safe checkpoint, with `lo < stopped <= hi`. `None` re-runs
    /// the whole lease.
    pub recover: RecoverFn,
    /// Receives `worker_spawned` / `lease_issued` / `lease_stolen` /
    /// `worker_lost` / `worker_restarted` events.
    pub tracer: Tracer,
    /// When set, every frame sent/received is appended as JSONL
    /// (`{"dir":…,"shard":…,"frame":…}`), the document format of
    /// `schemas/dist-frame.schema.json`.
    pub frame_log: Option<PathBuf>,
    /// Cooperative cancellation (SIGINT/SIGTERM): when it flips true
    /// the coordinator truncates all active leases and drains.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Stop issuing work once this many items have completed (the
    /// distributed analogue of `--halt-after`; the actual stop point
    /// lands at the next case boundary of each active lease).
    pub halt_after: Option<u64>,
}

/// One covered sub-range and its partial-result payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Tile {
    pub lo: u64,
    pub hi: u64,
    pub payload: String,
}

/// Fleet counters for the final stats line / `--stats-json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistStats {
    pub workers_spawned: u64,
    pub leases_issued: u64,
    pub leases_stolen: u64,
    pub workers_lost: u64,
    pub workers_restarted: u64,
    pub kills: u64,
}

/// What the fleet produced.
pub struct DistOutcome {
    /// Disjoint tiles sorted by `lo`. When `complete`, they cover
    /// exactly `[base, base + items)` with no gaps.
    pub tiles: Vec<Tile>,
    /// Whole interval covered (false after cancel / halt).
    pub complete: bool,
    /// Length of the contiguous covered prefix starting at `base` —
    /// the resumable frontier after a halt.
    pub covered: u64,
    pub stats: DistStats,
}

/// Coordinator-level failure (worker error frame, fleet exhaustion, or
/// an internal coverage bug).
#[derive(Clone, Debug)]
pub struct DistError {
    pub message: String,
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DistError {}

fn err(message: impl Into<String>) -> DistError {
    DistError {
        message: message.into(),
    }
}

/// A not-yet-leased sub-range. `stolen_from` carries the provenance of
/// a stolen tail so `lease_stolen` is emitted at reissue time, when the
/// thief is known.
struct PendingRange {
    lo: u64,
    hi: u64,
    stolen_from: Option<(u64, u64)>, // (lease, shard)
}

struct Active {
    lease: u64,
    lo: u64,
    hi: u64,
    /// Worker's last reported `next` item (heartbeat), our best guess
    /// of its progress for stealing and hang recovery.
    cursor: u64,
    last_beat: Instant,
    /// Truncation point sent for a steal; cleared when the result
    /// arrives.
    steal_to: Option<u64>,
}

enum SlotState {
    /// Spawned, waiting for `hello`.
    Starting {
        since: Instant,
    },
    Idle,
    Busy(Active),
    /// Lost; respawn when `due` passes.
    Waiting {
        due: Instant,
    },
    /// Restart budget exhausted.
    Gone,
}

struct Slot {
    shard: u64,
    /// Bumped on every (re)spawn; events from older epochs are stale.
    epoch: u64,
    child: Option<Child>,
    stdin: Option<FrameWriter>,
    state: SlotState,
    restarts: u32,
    /// Set when the coordinator itself killed the child (chaos axis),
    /// so the exit is reported as `killed` rather than `exit`.
    kill_mark: bool,
}

enum Ev {
    Frame {
        shard: u64,
        epoch: u64,
        frame: Frame,
    },
    Eof {
        shard: u64,
        epoch: u64,
        detail: String,
    },
}

struct Coordinator {
    cfg: DistConfig,
    hooks: DistHooks,
    end: u64,
    lease_items: u64,
    next: u64,
    next_lease: u64,
    pending: VecDeque<PendingRange>,
    tiles: Vec<Tile>,
    slots: Vec<Slot>,
    tx: Sender<Ev>,
    stats: DistStats,
    frame_log: Option<File>,
    /// Cancel/halt reached: truncate active leases, stop issuing work.
    halting: bool,
    shutting_down: bool,
    /// Items the fleet has reported progress past (heartbeat cursor
    /// advances plus result tails), the clock of the chaos
    /// (`kill_workers`) schedule. Reaches at least `items` in any
    /// completing campaign, so every scheduled kill fires.
    progress_items: u64,
    kill_at: VecDeque<u64>,
}

/// Runs the campaign over `[base, base + items)` across
/// `config.shards` worker processes. Returns the sorted tiles; callers
/// fold them, in order, into the final report.
pub fn run_distributed(config: DistConfig, hooks: DistHooks) -> Result<DistOutcome, DistError> {
    let end = config
        .base
        .checked_add(config.items)
        .ok_or_else(|| err("campaign interval overflows u64"))?;
    if config.items == 0 {
        return Ok(DistOutcome {
            tiles: Vec::new(),
            complete: true,
            covered: 0,
            stats: DistStats::default(),
        });
    }
    let shards = config.shards.clamp(1, config.items);
    let lease_items = if config.lease_items > 0 {
        config.lease_items
    } else {
        (config.items / (shards * 4)).clamp(1, 256)
    };
    let frame_log = match &hooks.frame_log {
        Some(path) => Some(
            File::create(path)
                .map_err(|e| err(format!("cannot create frame log {}: {e}", path.display())))?,
        ),
        None => None,
    };
    let kill_at = kill_schedule(config.kill_seed, config.kill_workers, config.items);
    let (tx, rx) = channel();
    let mut co = Coordinator {
        end,
        lease_items,
        next: config.base,
        next_lease: 0,
        pending: VecDeque::new(),
        tiles: Vec::new(),
        slots: Vec::new(),
        tx,
        stats: DistStats::default(),
        frame_log,
        halting: false,
        shutting_down: false,
        progress_items: 0,
        kill_at,
        cfg: config,
        hooks,
    };
    for shard in 0..shards {
        let mut slot = Slot {
            shard,
            epoch: 0,
            child: None,
            stdin: None,
            state: SlotState::Gone,
            restarts: 0,
            kill_mark: false,
        };
        co.spawn_worker(&mut slot);
        co.slots.push(slot);
    }
    let outcome = co.event_loop(&rx);
    co.shutdown_fleet();
    let mut outcome = outcome?;
    outcome.stats = co.stats;
    Ok(outcome)
}

/// Deterministic chaos schedule: `kills` item-progress thresholds in
/// `[1, items]`, sorted. When the fleet's cumulative item progress
/// (heartbeat cursor advances plus result tails) crosses a threshold,
/// the worker that sent the crossing frame is SIGKILLed. Because a
/// completing campaign progresses past every item, every threshold is
/// guaranteed to fire.
fn kill_schedule(seed: u64, kills: u64, items: u64) -> VecDeque<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut at: Vec<u64> = (0..kills).map(|_| 1 + rng.below(items.max(1))).collect();
    at.sort_unstable();
    at.into()
}

/// Exponential backoff for the `attempt`-th restart (1-based), capped
/// so a byzantine flapper cannot stall the campaign for minutes.
fn backoff_for(attempt: u32) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(6);
    RESTART_BACKOFF
        .saturating_mul(factor)
        .min(Duration::from_secs(5))
}

/// Length of the contiguous covered prefix starting at `base`.
/// `tiles` must be sorted by `lo`.
pub(crate) fn contiguous_covered(tiles: &[Tile], base: u64) -> u64 {
    let mut frontier = base;
    for t in tiles {
        if t.lo > frontier {
            break;
        }
        frontier = frontier.max(t.hi);
    }
    frontier - base
}

impl Coordinator {
    fn event_loop(&mut self, rx: &Receiver<Ev>) -> Result<DistOutcome, DistError> {
        loop {
            self.check_cancel_and_halt();
            self.respawn_due();
            if !self.halting {
                self.issue_leases();
                self.try_steal();
            }
            if self.drained() {
                return self.finish();
            }
            if self.fleet_dead() {
                return Err(err(format!(
                    "all {} worker(s) lost with work remaining (restart budget {} exhausted)",
                    self.slots.len(),
                    MAX_RESTARTS
                )));
            }
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ev) => self.handle_event(ev)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(err("coordinator event channel closed unexpectedly"))
                }
            }
            self.check_hangs();
        }
    }

    /// All work accounted for: nothing pending or unissued, and no
    /// worker still holds a lease. During a halt the unissued tail is
    /// intentionally abandoned, so only in-flight leases gate draining.
    fn drained(&self) -> bool {
        let busy = self
            .slots
            .iter()
            .any(|s| matches!(s.state, SlotState::Busy(_)));
        if busy {
            return false;
        }
        if self.halting {
            // Workers that never said hello can't hold work.
            return true;
        }
        self.next >= self.end && self.pending.is_empty()
    }

    fn fleet_dead(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, SlotState::Gone))
    }

    fn finish(&mut self) -> Result<DistOutcome, DistError> {
        self.tiles.retain(|t| t.hi > t.lo);
        self.tiles.sort_by_key(|t| t.lo);
        let base = self.cfg.base;
        let covered = contiguous_covered(&self.tiles, base);
        let complete = !self.halting && self.next >= self.end && self.pending.is_empty();
        if complete {
            // Invariant 1 (disjoint, exact): verify before anyone
            // trusts the merge.
            let mut frontier = base;
            for t in &self.tiles {
                if t.lo != frontier {
                    return Err(err(format!(
                        "internal coverage bug: expected tile at {frontier}, found [{}, {})",
                        t.lo, t.hi
                    )));
                }
                frontier = t.hi;
            }
            if frontier != self.end {
                return Err(err(format!(
                    "internal coverage bug: tiles end at {frontier}, campaign ends at {}",
                    self.end
                )));
            }
        }
        Ok(DistOutcome {
            tiles: std::mem::take(&mut self.tiles),
            complete,
            covered,
            stats: self.stats,
        })
    }

    fn check_cancel_and_halt(&mut self) {
        if self.halting {
            return;
        }
        let cancelled = self
            .hooks
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::SeqCst));
        let halted = self.hooks.halt_after.is_some_and(|h| {
            let in_flight: u64 = self
                .slots
                .iter()
                .filter_map(|s| match &s.state {
                    SlotState::Busy(a) => Some(a.cursor.saturating_sub(a.lo)),
                    _ => None,
                })
                .sum();
            let done: u64 = self.tiles.iter().map(|t| t.hi - t.lo).sum();
            done + in_flight >= h
        });
        if !(cancelled || halted) {
            return;
        }
        self.halting = true;
        for i in 0..self.slots.len() {
            if let SlotState::Busy(a) = &self.slots[i].state {
                let frame = Frame::Truncate {
                    lease: a.lease,
                    hi: a.cursor.max(a.lo),
                };
                self.send_to(i, &frame);
            }
        }
    }

    fn respawn_due(&mut self) {
        if self.halting {
            return;
        }
        let now = Instant::now();
        for i in 0..self.slots.len() {
            let due = matches!(self.slots[i].state, SlotState::Waiting { due } if due <= now);
            if due {
                let (shard_v, epoch_v, restarts_v) = {
                    let s = &self.slots[i];
                    (s.shard, s.epoch, s.restarts)
                };
                let mut slot = std::mem::replace(
                    &mut self.slots[i],
                    Slot {
                        shard: shard_v,
                        epoch: epoch_v,
                        child: None,
                        stdin: None,
                        state: SlotState::Gone,
                        restarts: restarts_v,
                        kill_mark: false,
                    },
                );
                let attempt = u64::from(slot.restarts);
                self.spawn_worker(&mut slot);
                self.stats.workers_restarted += 1;
                let shard = slot.shard;
                self.hooks
                    .tracer
                    .emit_with(|| EventKind::WorkerRestarted { shard, attempt });
                self.slots[i] = slot;
            }
        }
    }

    fn spawn_worker(&mut self, slot: &mut Slot) {
        slot.epoch += 1;
        slot.kill_mark = false;
        let shard = slot.shard;
        let epoch = slot.epoch;
        let spawned = Command::new(&self.hooks.program)
            .args((self.hooks.args_for)(shard))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        match spawned {
            Ok(mut child) => {
                let stdout = child.stdout.take();
                let stdin = child.stdin.take();
                slot.stdin = stdin.map(FrameWriter::new);
                slot.child = Some(child);
                slot.state = SlotState::Starting {
                    since: Instant::now(),
                };
                self.stats.workers_spawned += 1;
                if let Some(stdout) = stdout {
                    let tx = self.tx.clone();
                    thread::spawn(move || {
                        let mut reader = BufReader::new(stdout);
                        loop {
                            match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
                                Ok(Some(payload)) => match Frame::parse(&payload) {
                                    Ok(frame) => {
                                        if tx
                                            .send(Ev::Frame {
                                                shard,
                                                epoch,
                                                frame,
                                            })
                                            .is_err()
                                        {
                                            return;
                                        }
                                    }
                                    Err(e) => {
                                        let _ = tx.send(Ev::Eof {
                                            shard,
                                            epoch,
                                            detail: format!("protocol: {e}"),
                                        });
                                        return;
                                    }
                                },
                                Ok(None) => {
                                    let _ = tx.send(Ev::Eof {
                                        shard,
                                        epoch,
                                        detail: "exit".to_string(),
                                    });
                                    return;
                                }
                                Err(e) => {
                                    let _ = tx.send(Ev::Eof {
                                        shard,
                                        epoch,
                                        detail: format!("protocol: {e}"),
                                    });
                                    return;
                                }
                            }
                        }
                    });
                }
            }
            Err(e) => {
                // Treat a spawn failure like an instant worker loss so
                // the backoff/abandon policy applies uniformly.
                eprintln!(
                    "air dist: shard {shard}: spawn {} failed: {e}",
                    self.hooks.program.display()
                );
                slot.child = None;
                slot.stdin = None;
                slot.state = SlotState::Starting {
                    since: Instant::now(),
                };
                let _ = self.tx.send(Ev::Eof {
                    shard,
                    epoch,
                    detail: "exit".to_string(),
                });
            }
        }
    }

    fn issue_leases(&mut self) {
        for i in 0..self.slots.len() {
            if !matches!(self.slots[i].state, SlotState::Idle) {
                continue;
            }
            let range = if let Some(p) = self.pending.pop_front() {
                Some(p)
            } else if self.next < self.end {
                let lo = self.next;
                let hi = (lo + self.lease_items).min(self.end);
                self.next = hi;
                Some(PendingRange {
                    lo,
                    hi,
                    stolen_from: None,
                })
            } else {
                None
            };
            let Some(range) = range else { return };
            self.next_lease += 1;
            let lease = self.next_lease;
            let shard = self.slots[i].shard;
            if let Some((stolen_lease, from_shard)) = range.stolen_from {
                self.stats.leases_stolen += 1;
                let at = range.lo;
                self.hooks.tracer.emit_with(|| EventKind::LeaseStolen {
                    lease: stolen_lease,
                    from_shard,
                    to_shard: shard,
                    at,
                });
            }
            let frame = Frame::Lease {
                lease,
                lo: range.lo,
                hi: range.hi,
            };
            self.send_to(i, &frame);
            self.slots[i].state = SlotState::Busy(Active {
                lease,
                lo: range.lo,
                hi: range.hi,
                cursor: range.lo,
                last_beat: Instant::now(),
                steal_to: None,
            });
            self.stats.leases_issued += 1;
            let (lo, hi) = (range.lo, range.hi);
            self.hooks.tracer.emit_with(|| EventKind::LeaseIssued {
                lease,
                shard,
                lo,
                hi,
            });
        }
    }

    /// With no fresh or pending work left, put idle workers back to
    /// work by splitting the straggler with the most remaining items.
    fn try_steal(&mut self) {
        if self.next < self.end || !self.pending.is_empty() {
            return;
        }
        let idle = self
            .slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Idle))
            .count();
        if idle == 0 {
            return;
        }
        let mut best: Option<(usize, u64)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if let SlotState::Busy(a) = &s.state {
                if a.steal_to.is_some() {
                    continue; // one steal in flight per lease
                }
                let remaining = a.hi.saturating_sub(a.cursor);
                if remaining >= STEAL_MIN * 2 && best.is_none_or(|(_, r)| remaining > r) {
                    best = Some((i, remaining));
                }
            }
        }
        let Some((i, remaining)) = best else { return };
        if let SlotState::Busy(a) = &mut self.slots[i].state {
            let mid = a.cursor + remaining / 2;
            a.steal_to = Some(mid);
            let frame = Frame::Truncate {
                lease: a.lease,
                hi: mid,
            };
            self.send_to(i, &frame);
        }
    }

    fn handle_event(&mut self, ev: Ev) -> Result<(), DistError> {
        match ev {
            Ev::Frame {
                shard,
                epoch,
                frame,
            } => {
                let Some(i) = self.slot_index(shard, epoch) else {
                    return Ok(()); // stale epoch: a ghost of a killed worker
                };
                self.log_frame("recv", shard, &frame);
                match frame {
                    Frame::Hello { shard: claimed, .. } => {
                        if claimed != shard {
                            self.lose(i, "protocol");
                            return Ok(());
                        }
                        if matches!(self.slots[i].state, SlotState::Starting { .. }) {
                            self.slots[i].state = SlotState::Idle;
                            let pid = self.slots[i]
                                .child
                                .as_ref()
                                .map(|c| u64::from(c.id()))
                                .unwrap_or_default();
                            self.hooks
                                .tracer
                                .emit_with(|| EventKind::WorkerSpawned { shard, pid });
                        }
                    }
                    Frame::Heartbeat { lease, next } => {
                        if let SlotState::Busy(a) = &mut self.slots[i].state {
                            if a.lease == lease {
                                let was = a.cursor;
                                a.cursor = next.clamp(a.lo, a.hi);
                                a.last_beat = Instant::now();
                                let gained = a.cursor.saturating_sub(was);
                                self.progress_items += gained;
                            }
                        }
                        self.maybe_chaos_kill(i);
                    }
                    Frame::Result {
                        lease,
                        lo,
                        stopped,
                        payload,
                    } => {
                        let state = std::mem::replace(&mut self.slots[i].state, SlotState::Idle);
                        let SlotState::Busy(a) = state else {
                            self.slots[i].state = state;
                            self.lose(i, "protocol");
                            return Ok(());
                        };
                        if a.lease != lease || a.lo != lo || stopped < lo || stopped > a.hi {
                            self.lose(i, "protocol");
                            return Ok(());
                        }
                        if stopped > lo {
                            self.tiles.push(Tile {
                                lo,
                                hi: stopped,
                                payload,
                            });
                        }
                        if stopped < a.hi && !self.halting {
                            // Unfinished tail: reissue. Provenance is a
                            // steal only if we truncated for one.
                            self.pending.push_back(PendingRange {
                                lo: stopped,
                                hi: a.hi,
                                stolen_from: a.steal_to.map(|_| (lease, shard)),
                            });
                        }
                        // A result advances the chaos clock by the
                        // lease tail no heartbeat claimed yet, so small
                        // campaigns whose leases finish between
                        // heartbeats still exercise worker kills (the
                        // result frame is already banked — the kill
                        // lands between leases, like a crash there).
                        self.progress_items += stopped.saturating_sub(a.cursor);
                        self.maybe_chaos_kill(i);
                    }
                    Frame::Error { message } => {
                        return Err(err(format!("shard {shard}: worker error: {message}")));
                    }
                    Frame::Lease { .. } | Frame::Truncate { .. } | Frame::Shutdown => {
                        self.lose(i, "protocol");
                    }
                }
            }
            Ev::Eof {
                shard,
                epoch,
                detail,
            } => {
                let Some(i) = self.slot_index(shard, epoch) else {
                    return Ok(());
                };
                if self.shutting_down {
                    return Ok(());
                }
                let reason = if self.slots[i].kill_mark {
                    "killed"
                } else if detail.starts_with("protocol") {
                    "protocol"
                } else {
                    "exit"
                };
                self.lose(i, reason);
            }
        }
        Ok(())
    }

    fn slot_index(&self, shard: u64, epoch: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.shard == shard && s.epoch == epoch)
    }

    fn check_hangs(&mut self) {
        let now = Instant::now();
        let timeout = self.cfg.hang_timeout;
        for i in 0..self.slots.len() {
            let hung = match &self.slots[i].state {
                SlotState::Busy(a) => now.duration_since(a.last_beat) > timeout,
                SlotState::Starting { since } => now.duration_since(*since) > timeout,
                _ => false,
            };
            if hung {
                self.lose(i, "hang");
            }
        }
    }

    /// SIGKILL the worker whose frame pushed the item-progress clock
    /// past the chaos schedule's next threshold.
    fn maybe_chaos_kill(&mut self, i: usize) {
        let due = self
            .kill_at
            .front()
            .is_some_and(|&at| self.progress_items >= at);
        if !due {
            return;
        }
        self.kill_at.pop_front();
        if self.slots[i].child.is_some() {
            self.slots[i].kill_mark = true;
            if let Some(child) = &mut self.slots[i].child {
                let _ = child.kill();
            }
            self.stats.kills += 1;
        }
    }

    /// A worker is gone (died, hung, or spoke garbage): salvage its
    /// lease from the crash checkpoint and schedule a restart.
    fn lose(&mut self, i: usize, reason: &str) {
        let shard = self.slots[i].shard;
        if let Some(child) = &mut self.slots[i].child {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.slots[i].child = None;
        self.slots[i].stdin = None;
        self.slots[i].epoch += 1; // orphan any in-flight events
        self.stats.workers_lost += 1;
        {
            let reason = reason.to_string();
            self.hooks
                .tracer
                .emit_with(|| EventKind::WorkerLost { shard, reason });
        }
        let state = std::mem::replace(&mut self.slots[i].state, SlotState::Gone);
        if let SlotState::Busy(a) = state {
            // Invariant 2: resume at the shard's last crash-safe
            // checkpoint, or re-run the lease from scratch.
            match (self.hooks.recover)(shard, a.lo, a.hi) {
                Some((stopped, payload)) if a.lo < stopped && stopped <= a.hi => {
                    self.tiles.push(Tile {
                        lo: a.lo,
                        hi: stopped,
                        payload,
                    });
                    if stopped < a.hi {
                        self.pending.push_back(PendingRange {
                            lo: stopped,
                            hi: a.hi,
                            stolen_from: None,
                        });
                    }
                }
                _ => {
                    self.pending.push_back(PendingRange {
                        lo: a.lo,
                        hi: a.hi,
                        stolen_from: None,
                    });
                }
            }
        }
        self.slots[i].restarts += 1;
        self.slots[i].state = if self.slots[i].restarts > MAX_RESTARTS {
            SlotState::Gone
        } else {
            SlotState::Waiting {
                due: Instant::now() + backoff_for(self.slots[i].restarts),
            }
        };
    }

    fn send_to(&mut self, i: usize, frame: &Frame) {
        let shard = self.slots[i].shard;
        self.log_frame("send", shard, frame);
        if let Some(stdin) = &self.slots[i].stdin {
            // A failed send means the pipe died; the reader thread's
            // EOF event will drive recovery.
            let _ = stdin.send(frame);
        }
    }

    fn log_frame(&mut self, dir: &str, shard: u64, frame: &Frame) {
        if let Some(log) = &mut self.frame_log {
            let _ = writeln!(
                log,
                "{{\"dir\":\"{dir}\",\"shard\":{shard},\"frame\":{}}}",
                frame.render()
            );
        }
    }

    /// Ask every live worker to exit, give the fleet a grace period,
    /// then kill stragglers. Runs on every exit path.
    fn shutdown_fleet(&mut self) {
        self.shutting_down = true;
        for i in 0..self.slots.len() {
            if self.slots[i].child.is_some() {
                self.send_to(i, &Frame::Shutdown);
            }
            self.slots[i].stdin = None; // close stdin: belt and braces
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut waiting = false;
            for slot in &mut self.slots {
                if let Some(child) = &mut slot.child {
                    match child.try_wait() {
                        Ok(Some(_)) => slot.child = None,
                        Ok(None) => waiting = true,
                        Err(_) => slot.child = None,
                    }
                }
            }
            if !waiting {
                return;
            }
            if Instant::now() >= deadline {
                for slot in &mut self.slots {
                    if let Some(child) = &mut slot.child {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    slot.child = None;
                }
                return;
            }
            thread::sleep(Duration::from_millis(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(lo: u64, hi: u64) -> Tile {
        Tile {
            lo,
            hi,
            payload: String::new(),
        }
    }

    #[test]
    fn contiguous_prefix_walks_sorted_tiles() {
        assert_eq!(contiguous_covered(&[], 10), 0);
        assert_eq!(contiguous_covered(&[tile(10, 14)], 10), 4);
        assert_eq!(contiguous_covered(&[tile(10, 14), tile(14, 20)], 10), 10);
        assert_eq!(contiguous_covered(&[tile(10, 14), tile(16, 20)], 10), 4);
        assert_eq!(contiguous_covered(&[tile(12, 14)], 10), 0);
    }

    #[test]
    fn kill_schedule_is_deterministic_and_sorted() {
        let a = kill_schedule(7, 3, 100);
        let b = kill_schedule(7, 3, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&t| (1..=100).contains(&t)));
        assert!(a.iter().zip(a.iter().skip(1)).all(|(x, y)| x <= y));
        assert_ne!(kill_schedule(8, 3, 100), a);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_for(1), Duration::from_millis(50));
        assert_eq!(backoff_for(2), Duration::from_millis(100));
        assert_eq!(backoff_for(3), Duration::from_millis(200));
        assert!(backoff_for(40) <= Duration::from_secs(5));
    }

    #[test]
    fn zero_items_completes_immediately() {
        let outcome = run_distributed(
            DistConfig {
                items: 0,
                ..DistConfig::default()
            },
            DistHooks {
                program: PathBuf::from("/nonexistent"),
                args_for: Box::new(|_| Vec::new()),
                recover: Box::new(|_, _, _| None),
                tracer: Tracer::disabled(),
                frame_log: None,
                cancel: None,
                halt_after: None,
            },
        )
        .expect("empty campaign");
        assert!(outcome.complete);
        assert!(outcome.tiles.is_empty());
    }
}
