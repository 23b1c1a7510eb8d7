//! `fuzz-campaign`: `air_fuzz::run_campaign` over a seeded case range,
//! all ten theorem oracles plus the differential sweep, no shrinking.
//! The only workload that runs the CEGAR, LCL_A and forward-repair
//! oracles, over thousands of tiny universes on the small-universe
//! bypass path. A clean campaign — no violation, no disagreement — is
//! its known answer.
//!
//! The traced passes replay each case through the calls
//! `replay_case` makes — `FuzzCase::generate`, `FuzzCase::build`, each
//! oracle, `diff::differential_sweep` — with a span around each.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use air::fuzz::oracles::{self, registry};
use air::fuzz::{diff, run_campaign, CampaignWatch, FuzzCase, FuzzOptions};

use crate::harness::{self, Config, Counts, Outcome, Pass, Workload};
use crate::measure::{Probe, Recorder};

/// Cases, over all rounds, per second of `--seconds`.
const CASES_PER_SECOND: u64 = 300;

/// Rounds per run; each runs a campaign over a case range of its own.
const ROUNDS: usize = 5;

/// Each oracle and the span (and per-layer metric) timing it, in
/// registry order.
pub const ORACLE_SPANS: &[(&str, &str)] = &[
    ("forward_repair", "fuzz.oracle_ms.forward_repair"),
    ("backward_repair", "fuzz.oracle_ms.backward_repair"),
    ("soundness", "fuzz.oracle_ms.soundness"),
    ("sup_l", "fuzz.oracle_ms.sup_l"),
    ("pointed_shell", "fuzz.oracle_ms.pointed_shell"),
    ("guard_shell", "fuzz.oracle_ms.guard_shell"),
    ("convexity", "fuzz.oracle_ms.convexity"),
    ("pointed_widening", "fuzz.oracle_ms.pointed_widening"),
    ("lcl_spec", "fuzz.oracle_ms.lcl_spec"),
    ("cegar_spuriousness", "fuzz.oracle_ms.cegar_spuriousness"),
];

fn span_of(oracle: &str) -> Option<&'static str> {
    ORACLE_SPANS
        .iter()
        .find(|(o, _)| *o == oracle)
        .map(|(_, s)| *s)
}

/// The workload: one campaign per round, each over its own case range.
struct FuzzCampaign {
    /// Round 0's campaign; round `r` starts `r * cases` seeds later.
    first: FuzzOptions,
    opts: FuzzOptions,
    checked: u64,
    /// `(first seed, (built, oracle runs, eval skips))` of the last
    /// untraced campaign, which a traced replay of the same range must
    /// reproduce.
    campaign: Option<(u64, (u64, u64, u64))>,
    /// Run after every case, on the campaign's thread.
    probe: Arc<Mutex<Probe>>,
}

impl FuzzCampaign {
    fn cases(&self) -> std::ops::Range<u64> {
        self.opts.base_seed..self.opts.base_seed + self.opts.cases
    }

    /// The campaign itself, untraced; per-case latency from its progress
    /// callback, which also runs the probe (outside every case's time).
    fn campaign(&mut self, pass: &mut Pass, out: &mut Outcome) {
        let stamps = Arc::new(Mutex::new(Vec::with_capacity(self.opts.cases as usize)));
        let sink = Arc::clone(&stamps);
        let probe = Arc::clone(&self.probe);
        let watch = CampaignWatch::new().with_progress(move |_| {
            let done = Instant::now();
            let speed = probe.lock().expect("one campaign at a time").sample();
            sink.lock().expect("progress stamps are only pushed").push((
                done,
                speed,
                Instant::now(),
            ))
        });
        let opts = FuzzOptions {
            watch: Some(watch),
            ..self.opts.clone()
        };
        let start = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| run_campaign(&opts)));
        let stamps = stamps.lock().expect("the campaign has finished").clone();
        let mut prev = start;
        for (done, speed, next) in &stamps {
            pass.push((*done - prev).as_secs_f64() * 1e3, true);
            pass.speeds.push(*speed);
            prev = *next;
        }
        for _ in stamps.len() as u64..self.opts.cases {
            pass.push(0.0, false); // lost to a panic
        }
        let Ok(report) = report else {
            out.errors.push("the campaign panicked".to_string());
            return;
        };
        if !report.is_clean() || report.built + report.build_skips != self.opts.cases {
            out.errors.push(format!(
                "campaign from seed {}: {} cases accounted of {}, {} violations, {} disagreements",
                self.opts.base_seed,
                report.built + report.build_skips,
                self.opts.cases,
                report.violations,
                report.disagreements
            ));
        }
        let runs: u64 = report.oracle_rows.values().map(|r| r.runs).sum();
        self.campaign = Some((self.opts.base_seed, (report.built, runs, report.eval_skips)));
    }

    /// The same cases replayed through the calls `replay_case` makes, a
    /// span around each.
    fn replay(&self, rec: &mut Recorder, pass: &mut Pass, counts: &mut Counts, out: &mut Outcome) {
        let mut add = |k: &'static str, v: u64| *counts.entry(k).or_insert(0) += v;
        for seed in self.cases() {
            let t0 = Instant::now();
            let op = seed - self.opts.base_seed;
            let root = rec.enter("fuzz.case", op);
            let case = rec.time("fuzz.generate", op, || FuzzCase::generate(seed));
            match rec.time("fuzz.build", op, || case.build()) {
                Err(_) => add("fuzz.build_skips", 1),
                Ok(built) => {
                    add("fuzz.built", 1);
                    for (name, _) in registry() {
                        let span = span_of(name).unwrap_or("fuzz.oracle_ms.unknown");
                        let key = match rec.time(span, op, || oracles::run(name, &built)) {
                            Some(Ok(v)) if v.message().is_some() => "fuzz.violations",
                            Some(Ok(_)) => "fuzz.oracle_runs",
                            Some(Err(_)) => "fuzz.eval_skips",
                            None => "fuzz.unknown_oracles",
                        };
                        add(key, 1);
                    }
                    match rec.time("fuzz.diff_sweep", op, || diff::differential_sweep(&built)) {
                        Ok(diffs) => add("fuzz.disagreements", diffs.len() as u64),
                        Err(_) => add("fuzz.diff_skips", 1),
                    }
                }
            }
            rec.exit(root);
            pass.push(t0.elapsed().as_secs_f64() * 1e3, true);
            pass.speeds
                .push(self.probe.lock().expect("one pass at a time").sample());
        }
        for key in [
            "fuzz.violations",
            "fuzz.disagreements",
            "fuzz.unknown_oracles",
        ] {
            if let Some(n) = counts.get(key).filter(|n| **n > 0) {
                out.errors.push(format!("traced replay: {n} {key}"));
            }
        }
        let c = |k: &str| counts.get(k).copied().unwrap_or(0);
        let replayed = (c("fuzz.built"), c("fuzz.oracle_runs"), c("fuzz.eval_skips"));
        if let Some((_, campaign)) = self
            .campaign
            .filter(|(base, counted)| *base == self.opts.base_seed && *counted != replayed)
        {
            out.errors.push(format!(
                "traced replay counted (built, oracle runs, skips) = {replayed:?}, the campaign {campaign:?}"
            ));
        }
    }
}

impl Workload for FuzzCampaign {
    type State = ();

    fn rounds(&self) -> usize {
        ROUNDS
    }

    fn setups_per_round(&self) -> usize {
        25
    }

    /// Generates the round's case list once ahead of the campaign, which
    /// generates it again: set-up time is the cost of building the list.
    fn setup(&mut self, round: usize) -> Result<(), String> {
        self.opts.base_seed = self.first.base_seed + round as u64 * self.first.cases;
        let cases: Vec<FuzzCase> = self.cases().map(FuzzCase::generate).collect();
        std::hint::black_box(cases);
        Ok(())
    }

    fn pass(
        &mut self,
        _: &mut (),
        rec: &mut Recorder,
        pass: &mut Pass,
        counts: &mut Counts,
        out: &mut Outcome,
    ) -> Result<(), String> {
        if rec.enabled() {
            self.replay(rec, pass, counts, out);
        } else {
            self.campaign(pass, out);
        }
        self.checked += self.opts.cases;
        Ok(())
    }

    fn layers(&self, rec: &Recorder, counts: &Counts, ops: u64, out: &mut Outcome) {
        let mut layers = vec![
            ("fuzz.generate", "fuzz.generate_ms"),
            ("fuzz.build", "fuzz.build_ms"),
            ("fuzz.diff_sweep", "fuzz.diff_sweep_ms"),
        ];
        layers.extend(ORACLE_SPANS.iter().map(|(_, s)| (*s, *s)));
        out.layer_times(rec, ops, &layers);
        let c = |k: &str| counts.get(k).copied().unwrap_or(0);
        out.set("fuzz.cases", self.opts.cases as f64);
        out.set("fuzz.oracle_runs", c("fuzz.oracle_runs") as f64);
        let attempts = c("fuzz.oracle_runs") + c("fuzz.eval_skips");
        out.set(
            "fuzz.eval_skip_ratio",
            c("fuzz.eval_skips") as f64 / attempts.max(1) as f64,
        );
        out.set(
            "fuzz.build_skip_ratio",
            c("fuzz.build_skips") as f64 / self.opts.cases.max(1) as f64,
        );
        out.notes.push(format!(
            "round 0: {} cases from seed {}, {} built, {} oracle runs",
            self.first.cases,
            self.first.base_seed,
            c("fuzz.built"),
            c("fuzz.oracle_runs")
        ));
    }

    fn finish(&self, out: &mut Outcome) {
        out.notes.push(format!(
            "{} fuzz cases checked: every campaign clean, every case accounted for",
            self.checked
        ));
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // As `air fuzz run` does: the differential sweep's fault-injection
    // axis panics on purpose, and those expected panics stay quiet.
    air::resilience::install_quiet_fault_hook();
    let opts = FuzzOptions {
        // Disjoint case ranges per workload seed.
        base_seed: cfg.seed.wrapping_mul(1_000_003),
        cases: (cfg.seconds * CASES_PER_SECOND / ROUNDS as u64).max(1),
        oracle: None,
        shrink: false,
        ..FuzzOptions::default()
    };
    harness::run(
        cfg,
        FuzzCampaign {
            first: opts.clone(),
            opts,
            campaign: None,
            checked: 0,
            probe: Arc::new(Mutex::new(Probe::new())),
        },
    )
}
