//! Aggregated view of a trace: per-phase wall time, per-kind event
//! counts, and named counters. Built live by the [`crate::Profiler`]
//! sink or after the fact from a JSONL file (`air trace summarize`).

use crate::json::{self, Value};
use air_metrics::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-phase aggregate: how many times the phase ran, its total
/// wall-clock time (sum over all spans, including nested ones), and a
/// log2-bucket histogram of per-span durations for the p50/p90/p99
/// columns. The histogram is `air_metrics::Histogram`, the same code
/// that backs the serve metrics plane, so `air trace summarize` and a
/// scraped daemon report quantiles with identical semantics (bucket
/// upper bounds, ≤ 2x relative error).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStat {
    pub count: u64,
    pub total_ns: u64,
    pub durations: Histogram,
}

impl PhaseStat {
    /// Upper-bound estimate of the `q`-quantile of span durations, ns.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.durations.quantile(q)
    }
}

/// Aggregated trace statistics; renderable as a text table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    pub phases: BTreeMap<String, PhaseStat>,
    pub kinds: BTreeMap<String, u64>,
    pub counters: BTreeMap<String, u64>,
    pub events: u64,
}

impl Summary {
    /// Fold one event (by wire kind + fields) into the aggregate.
    pub fn record_kind(&mut self, kind: &str) {
        self.events += 1;
        *self.kinds.entry(kind.to_string()).or_insert(0) += 1;
    }

    pub fn record_span_exit(&mut self, phase: &str, duration_ns: u64) {
        let stat = self.phases.entry(phase.to_string()).or_default();
        stat.count += 1;
        stat.total_ns += duration_ns;
        stat.durations.observe(duration_ns);
    }

    pub fn record_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Rebuild a summary from JSONL text (as written by the JSONL sink).
    /// Unknown kinds are counted but otherwise ignored; malformed lines
    /// are errors.
    pub fn from_jsonl(text: &str) -> Result<Summary, String> {
        let mut summary = Summary::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let doc = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let kind = doc
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: missing \"kind\"", lineno + 1))?;
            summary.record_kind(kind);
            match kind {
                "span_exit" => {
                    let phase = doc
                        .get("phase")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("line {}: span_exit without phase", lineno + 1))?;
                    let dur = doc
                        .get("duration_ns")
                        .and_then(Value::as_num)
                        .ok_or_else(|| {
                            format!("line {}: span_exit without duration_ns", lineno + 1)
                        })?;
                    summary.record_span_exit(phase, dur as u64);
                }
                "counter" => {
                    let name = doc
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("line {}: counter without name", lineno + 1))?;
                    let delta = doc.get("delta").and_then(Value::as_num).unwrap_or(1.0);
                    summary.record_counter(name, delta as u64);
                }
                _ => {}
            }
        }
        Ok(summary)
    }

    /// Render the per-phase time/count/percentile table plus event-kind
    /// and counter tables as aligned plain text.
    pub fn render(&self) -> String {
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        let mut out = String::new();
        let _ = writeln!(out, "{} events", self.events);
        if !self.phases.is_empty() {
            out.push('\n');
            render_table(
                &mut out,
                &["phase", "count", "total ms", "p50 ms", "p90 ms", "p99 ms"],
                self.phases
                    .iter()
                    .map(|(name, stat)| {
                        vec![
                            name.clone(),
                            stat.count.to_string(),
                            ms(stat.total_ns),
                            ms(stat.quantile_ns(0.50)),
                            ms(stat.quantile_ns(0.90)),
                            ms(stat.quantile_ns(0.99)),
                        ]
                    })
                    .collect(),
            );
        }
        if !self.kinds.is_empty() {
            out.push('\n');
            render_table(
                &mut out,
                &["event kind", "count"],
                self.kinds
                    .iter()
                    .map(|(kind, n)| vec![kind.clone(), n.to_string()])
                    .collect(),
            );
        }
        if !self.counters.is_empty() {
            out.push('\n');
            render_table(
                &mut out,
                &["counter", "total"],
                self.counters
                    .iter()
                    .map(|(name, n)| vec![name.clone(), n.to_string()])
                    .collect(),
            );
        }
        out
    }
}

/// Aligned plain-text table: first column left-aligned, the rest
/// right-aligned. Rows shorter than the header are padded with empties.
fn render_table(out: &mut String, headers: &[&str], rows: Vec<Vec<String>>) {
    let cols = headers.len();
    let widths: Vec<usize> = (0..cols)
        .map(|c| {
            rows.iter()
                .map(|r| r.get(c).map_or(0, String::len))
                .chain([headers[c].len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut line = |cells: &[String]| {
        for (c, w) in widths.iter().enumerate() {
            let cell = cells.get(c).map_or("", String::as_str);
            if c > 0 {
                out.push_str("  ");
            }
            let _ = if c == 0 {
                write!(out, "{cell:<w$}")
            } else {
                write!(out, "{cell:>w$}")
            };
        }
        out.push('\n');
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_jsonl_aggregates_phases_kinds_and_counters() {
        let text = "\
{\"seq\":0,\"t_ns\":1,\"kind\":\"span_enter\",\"phase\":\"p\"}\n\
{\"seq\":1,\"t_ns\":2,\"kind\":\"cache_hit\",\"table\":\"exec\"}\n\
{\"seq\":2,\"t_ns\":3,\"kind\":\"counter\",\"name\":\"runs\",\"delta\":2}\n\
{\"seq\":3,\"t_ns\":9,\"kind\":\"span_exit\",\"phase\":\"p\",\"duration_ns\":2000000}\n\
{\"seq\":4,\"t_ns\":11,\"kind\":\"span_exit\",\"phase\":\"p\",\"duration_ns\":1000000}\n";
        let s = Summary::from_jsonl(text).unwrap();
        assert_eq!(s.events, 5);
        assert_eq!(s.kinds["cache_hit"], 1);
        assert_eq!(s.kinds["span_exit"], 2);
        assert_eq!(s.counters["runs"], 2);
        assert_eq!(s.phases["p"].count, 2);
        assert_eq!(s.phases["p"].total_ns, 3_000_000);
        let table = s.render();
        assert!(table.contains("phase"), "{table}");
        assert!(table.contains("3.000"), "{table}");
        assert!(table.contains("cache_hit"), "{table}");
    }

    #[test]
    fn phase_percentiles_come_from_the_shared_histogram() {
        let mut s = Summary::default();
        // 99 fast spans (~1ms, log2 bucket ub 1_048_575 ns) and one slow
        // outlier (~1s, bucket ub 1_073_741_823 ns): the median stays in
        // the fast bucket, p99 lands on it too (rank 100*0.99 = 99), and
        // only the max reaches the outlier bucket.
        for _ in 0..99 {
            s.record_span_exit("p", 1_000_000);
        }
        s.record_span_exit("p", 1_000_000_000);
        let stat = &s.phases["p"];
        assert_eq!(stat.quantile_ns(0.50), (1 << 20) - 1);
        assert_eq!(stat.quantile_ns(0.99), (1 << 20) - 1);
        assert_eq!(stat.quantile_ns(1.0), (1 << 30) - 1);
        let table = s.render();
        assert!(table.contains("p50 ms"), "{table}");
        assert!(table.contains("p99 ms"), "{table}");
        // 1_048_575 ns renders as 1.049 ms in the p50 column.
        assert!(table.contains("1.049"), "{table}");
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        assert!(Summary::from_jsonl("{\"no_kind\":1}").is_err());
        assert!(Summary::from_jsonl("not json").is_err());
        assert!(
            Summary::from_jsonl("{\"kind\":\"span_exit\",\"phase\":\"p\"}").is_err(),
            "span_exit needs duration_ns"
        );
    }
}
