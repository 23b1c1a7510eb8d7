//! What every workload shares: rounds of set-up plus one pass over the
//! work list, untraced rounds for the end-to-end metrics, traced rounds
//! for the per-layer metrics, and the count-drift self-check between
//! traced rounds.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::measure::{self, Recorder, Speed};

/// Work counts summed over a pass, keyed by counter name.
pub type Counts = BTreeMap<&'static str, u64>;

/// The benchmark's command line.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One pass over a workload's fixed work list.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Per attempted operation; a failed one is `+inf`, so it misses
    /// every latency bound instead of dropping out of the percentiles.
    pub latencies_ms: Vec<f64>,
    /// The probe's speed after each operation, in operation order (see
    /// [`measure::Probe`]); an operation lost to a panic may have none.
    pub speeds: Vec<Speed>,
    /// Threads that ran the probe side by side (0 counts as 1): the
    /// probe's share of `wall_s` is its summed time over this.
    pub probe_threads: usize,
    /// The round's timed set-ups, in seconds as measured.
    pub setups_s: Vec<f64>,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Pass {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Appends one operation's outcome.
    pub fn push(&mut self, ms: f64, ok: bool) {
        self.latencies_ms.push(ms);
        if !ok {
            self.fail(self.latencies_ms.len() - 1);
        }
    }

    /// Marks operation `i` failed after the fact (say, an error frame).
    pub fn fail(&mut self, i: usize) {
        if self.latencies_ms[i].is_finite() {
            self.failed += 1;
            self.latencies_ms[i] = f64::INFINITY;
        }
    }

    /// The median probe speed over the pass.
    pub fn speed(&self) -> Option<Speed> {
        (!self.speeds.is_empty()).then(|| Speed::median(&self.speeds))
    }

    /// The median probe speed of the `2 * WINDOW + 1` operations around
    /// operation `i`: the speed the machine ran that operation at.
    fn speed_near(&self, i: usize) -> Option<Speed> {
        const WINDOW: usize = 8;
        let n = self.speeds.len();
        if n == 0 {
            return None;
        }
        let lo = i
            .saturating_sub(WINDOW)
            .min(n.saturating_sub(2 * WINDOW + 1));
        let hi = (lo + 2 * WINDOW + 1).min(n);
        Some(Speed::median(&self.speeds[lo..hi]))
    }

    /// Wall and CPU seconds of the pass spent in the probe.
    fn probe_s(&self) -> (f64, f64) {
        let wall: f64 = self.speeds.iter().map(|s| s.wall_s).sum();
        let cpu: f64 = self.speeds.iter().map(|s| s.cpu_s).sum();
        (wall / self.probe_threads.max(1) as f64, cpu)
    }

    /// The pass's wall seconds without the probe, at reference speed.
    pub fn scaled_wall_s(&self) -> f64 {
        let scale = self.speed().map_or(1.0, |s| s.wall_scale());
        (self.wall_s - self.probe_s().0) * scale
    }
}

/// A workload: a seeded work list per round, how to set it up and how
/// to run it.
///
/// A run is a few rounds; each round sets up afresh and runs its own
/// work list — drawn from the seed and the round number, alike in cost —
/// once. Medians over rounds shrug off a burst of load from elsewhere on
/// the machine, and distinct lists give the latency percentiles many
/// distinct inputs.
pub trait Workload {
    type State;

    /// Rounds per run.
    fn rounds(&self) -> usize;

    /// Timed set-ups per round (the last one's state is used): a cheap
    /// set-up repeats so that its median is steady.
    fn setups_per_round(&self) -> usize {
        1
    }

    /// Builds round `round`'s inputs (and server); timed as `setup_s`.
    fn setup(&mut self, round: usize) -> Result<Self::State, String>;

    /// Runs the work list once: one `pass.push` per operation, spans into
    /// `rec`, work counts into `counts`.
    fn pass(
        &mut self,
        state: &mut Self::State,
        rec: &mut Recorder,
        pass: &mut Pass,
        counts: &mut Counts,
        out: &mut Outcome,
    ) -> Result<(), String>;

    /// Checks the pass's answers against known answers once the pass is
    /// timed, so the checker's own work stays out of every metric: wrong
    /// answers into `out.errors`, error replies marked failed in `pass`.
    fn check(&mut self, _state: &mut Self::State, _pass: &mut Pass, _out: &mut Outcome) {}

    /// Runs after each traced pass, outside its timing.
    fn after_traced(
        &mut self,
        _state: &mut Self::State,
        _rec: &mut Recorder,
        _counts: &mut Counts,
        _out: &mut Outcome,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Notes on what the run checked, printed in either mode.
    fn finish(&self, _out: &mut Outcome) {}

    /// Per-layer metrics from every traced round's spans (`ops`
    /// operations in all) and round 0's work counts.
    fn layers(&self, rec: &Recorder, counts: &Counts, ops: u64, out: &mut Outcome);
}

/// Runs `w` for `cfg`: untraced rounds for the end-to-end metrics, or
/// untraced and traced passes of each round's list for the per-layer
/// ones.
pub fn run<W: Workload>(cfg: &Config, mut w: W) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let round = |w: &mut W, r: usize, rec: &mut Recorder, out: &mut Outcome| {
        let mut state = None;
        let mut setups_s = Vec::new();
        for _ in 0..w.setups_per_round().max(1) {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(w.setup(r)?);
            setups_s.push(t0.elapsed().as_secs_f64());
        }
        let mut state = state.ok_or("no set-up ran")?;
        let mut counts = Counts::new();
        let mut pass = Pass {
            setups_s,
            ..Pass::default()
        };
        let cpu0 = measure::usage().cpu_s;
        let t0 = Instant::now();
        w.pass(&mut state, rec, &mut pass, &mut counts, out)?;
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.cpu_s = measure::usage().cpu_s - cpu0;
        w.check(&mut state, &mut pass, out);
        if rec.enabled() {
            w.after_traced(&mut state, rec, &mut counts, out)?;
        }
        out.attempted += pass.attempted();
        out.failed += pass.failed;
        Ok::<_, String>((pass, counts))
    };
    let rounds = w.rounds();
    let origin = Instant::now();
    let mut untraced = Recorder::new(false, origin);
    // A warm-up round on a list of its own, checked but not measured: the
    // first round of a fresh process runs measurably slower (page
    // faults, allocator growth, cold caches).
    round(&mut w, rounds, &mut untraced, &mut out)?;
    if !cfg.trace {
        let mut passes = Vec::new();
        for r in 0..rounds {
            passes.push(round(&mut w, r, &mut untraced, &mut out)?.0);
        }
        out.end_to_end(&passes);
        w.finish(&mut out);
        return Ok(out);
    }
    let mut rec = Recorder::new(true, origin);
    let mut ratios = Vec::new();
    let mut scales = Vec::new();
    let mut first = Counts::new();
    let mut ops = 0;
    for r in 0..rounds {
        // Odd rounds trace first, so the second pass's warmer caches
        // favour neither side of the overhead ratio.
        let mut plain = None;
        if r % 2 == 0 {
            plain = Some(round(&mut w, r, &mut untraced, &mut out)?.0);
        }
        rec.set_op_base(ops);
        let (traced, counts) = round(&mut w, r, &mut rec, &mut out)?;
        let plain = match plain {
            Some(p) => p,
            None => round(&mut w, r, &mut untraced, &mut out)?.0,
        };
        ratios.push(traced.scaled_wall_s() / plain.scaled_wall_s());
        scales.extend(traced.speed().map(|s| s.wall_scale()));
        ops += traced.attempted();
        if r == 0 {
            first = counts;
        }
    }
    // The count-determinism self-check: round 0 traced a second time.
    let (_, again) = round(&mut w, 0, &mut Recorder::new(true, origin), &mut out)?;
    out.no_drift(&first, &again);
    out.set(
        "trace.overhead_pct",
        (measure::median(&ratios) - 1.0) * 100.0,
    );
    out.layer_scale = Some(measure::median(&scales)).filter(|s| s.is_finite());
    w.layers(&rec, &first, ops, &mut out);
    w.finish(&mut out);
    write_spans(cfg, &rec, &mut out);
    Ok(out)
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures: wrong verdicts, oracle violations, count
    /// drift. Any entry makes the run `correct: false`.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Scales the traced rounds' span times to the probe's reference
    /// speed (see [`measure::Speed`]); unset, they stay as measured.
    pub layer_scale: Option<f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// The end-to-end metrics of a run's untraced rounds, every time at
    /// the probe's reference speed: medians over rounds of throughput and
    /// CPU per operation, latency percentiles over every operation of
    /// every round, each latency scaled by the speed around it.
    pub fn end_to_end(&mut self, passes: &[Pass]) {
        let per_round =
            |f: &dyn Fn(&Pass) -> f64| measure::median(&passes.iter().map(f).collect::<Vec<_>>());
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.latencies_ms
                    .iter()
                    .enumerate()
                    .map(|(i, ms)| ms * p.speed_near(i).map_or(1.0, |s| s.wall_scale()))
            })
            .collect();
        let n = latencies.len();
        let failed: u64 = passes.iter().map(|p| p.failed).sum();
        let (p, tail_ms, beyond) = measure::tail(&latencies);
        let setups = |scaled: bool| -> Vec<f64> {
            passes
                .iter()
                .flat_map(|p| {
                    let scale = match p.speed() {
                        Some(s) if scaled => s.wall_scale(),
                        _ => 1.0,
                    };
                    p.setups_s.iter().map(move |s| s * scale)
                })
                .collect()
        };
        self.set("setup_s", measure::median(&setups(true)));
        self.set(
            "throughput_per_s",
            per_round(&|p| (p.attempted() - p.failed) as f64 / p.scaled_wall_s()),
        );
        self.set("latency_ms_p50", finite(measure::median(&latencies)));
        self.set("latency_ms_tail", finite(tail_ms));
        self.set(
            "cpu_ms_per_op",
            per_round(&|p| {
                let scale = p.speed().map_or(1.0, |s| s.cpu_scale());
                (p.cpu_s - p.probe_s().1) * scale * 1e3 / p.attempted().max(1) as f64
            }),
        );
        self.set("peak_rss_mb", measure::usage().peak_rss_mb);
        self.notes.push(format!(
            "{} rounds of {} operations, {} set-ups; throughput and CPU are medians over rounds",
            passes.len(),
            passes.first().map_or(0, Pass::attempted),
            setups(false).len()
        ));
        self.notes.push(format!(
            "times are at the probe's reference speed ({} us per probe call); as measured, round throughputs {:?}, set-up median {:.6} s",
            Speed::REFERENCE_S * 1e6,
            passes
                .iter()
                .map(|p| format!("{:.2}", p.attempted() as f64 / p.wall_s))
                .collect::<Vec<_>>(),
            measure::median(&setups(false))
        ));
        self.notes.push(format!(
            "probe us per call by round: {:?}",
            passes
                .iter()
                .map(|p| format!("{:.1}", p.speed().map_or(f64::NAN, |s| s.wall_s * 1e6)))
                .collect::<Vec<_>>()
        ));
        self.notes.push(format!(
            "latency_ms_tail is p{p} of {n} operations ({beyond} beyond it)"
        ));
        self.notes.push(format!(
            "failed_ratio = {:.6} ratio ({failed} of {n} operations failed)",
            failed as f64 / n.max(1) as f64
        ));
    }

    /// Inclusive time per operation of the spans named `name`, in ms.
    pub fn span_ms(&self, rec: &Recorder, name: &str, ops: u64) -> f64 {
        let ns = rec.total_ns().get(name).copied().unwrap_or(0);
        ns as f64 / 1e6 / ops.max(1) as f64 * self.layer_scale.unwrap_or(1.0)
    }

    /// Per-operation self time of each named layer span, in ms at the
    /// probe's reference speed.
    pub fn layer_times(&mut self, rec: &Recorder, ops: u64, names: &[(&str, &str)]) {
        let own = rec.self_ns();
        let scale = self.layer_scale.unwrap_or(1.0);
        for (span, metric) in names {
            let ns = own.get(span).copied().unwrap_or(0);
            self.set(*metric, ns as f64 / 1e6 / ops.max(1) as f64 * scale);
        }
    }

    /// A lookup count and its hit ratio, from summed hit/miss counters.
    pub fn ratio(&mut self, base: &str, ratio: &str, hits: u64, misses: u64) {
        let lookups = hits + misses;
        self.set(base, lookups as f64);
        self.set(
            ratio,
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        );
    }

    /// The count-determinism self-check: two traced runs of one list
    /// must count exactly the same work.
    pub fn no_drift(&mut self, first: &Counts, again: &Counts) {
        if first != again {
            self.errors.push(format!(
                "work counts drifted between two traced runs of one list: {first:?} vs {again:?}"
            ));
        } else {
            self.notes.push(format!(
                "{} work counters identical across two traced runs of one list",
                first.len()
            ));
        }
    }
}

/// A failed operation reads as `+inf`, which JSON cannot carry; it is
/// reported as a latency no bound admits.
fn finite(ms: f64) -> f64 {
    if ms.is_finite() {
        ms
    } else {
        1e12
    }
}

/// Writes the traced rounds' spans to `.bench_out/` in the checkout.
fn write_spans(cfg: &Config, rec: &Recorder, out: &mut Outcome) {
    let path = std::path::Path::new(".bench_out")
        .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(us: f64) -> Speed {
        Speed {
            wall_s: us * 1e-6,
            cpu_s: us * 1e-6,
        }
    }

    #[test]
    fn a_pass_is_scaled_to_the_reference_speed() {
        // Four operations with the probe at twice its reference time: the
        // machine ran at half speed, so the pass counts half its wall time.
        let slow = Speed::REFERENCE_S * 2e6;
        let pass = Pass {
            latencies_ms: vec![10.0; 4],
            speeds: vec![speed(slow); 4],
            wall_s: 1.0 + 4.0 * slow * 1e-6,
            ..Pass::default()
        };
        assert!((pass.scaled_wall_s() - 0.5).abs() < 1e-9);
        // Two client threads probe side by side: half the summed probe
        // time was spent out of the wall time.
        let pair = Pass {
            probe_threads: 2,
            wall_s: 1.0 + 2.0 * slow * 1e-6,
            ..pass
        };
        assert!((pair.scaled_wall_s() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn an_operation_is_scaled_by_the_speed_around_it() {
        // The machine halves its speed after operation 20 of 40.
        let speeds: Vec<Speed> = (0..40)
            .map(|i| speed(if i < 20 { 40.0 } else { 80.0 }))
            .collect();
        let pass = Pass {
            latencies_ms: vec![1.0; 40],
            speeds,
            ..Pass::default()
        };
        let near = |i| pass.speed_near(i).map(|s| s.wall_s * 1e6);
        assert_eq!(near(0), Some(40.0));
        assert_eq!(near(5), Some(40.0));
        assert_eq!(near(34), Some(80.0));
        assert_eq!(near(39), Some(80.0));
        assert_eq!(Pass::default().speed_near(3).map(|s| s.wall_s), None);
    }
}
