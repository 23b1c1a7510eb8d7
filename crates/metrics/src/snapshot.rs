//! Point-in-time snapshot of a registry, with the two wire renderings.
//!
//! A [`Snapshot`] is plain owned data — sorted rows of counters, gauges
//! and histograms — so it can be captured under the registry locks in
//! microseconds and rendered (or asserted against, in tests) with no
//! further synchronization. Two renderings:
//!
//! * [`Snapshot::to_json`] — the closed document described by
//!   `schemas/metrics-snapshot.schema.json` and checked by the
//!   `schema_check` bin. Histogram buckets are **non-cumulative**
//!   `(le, count)` pairs with zero buckets elided, so
//!   `sum(buckets[].count) == count` is a validatable invariant.
//! * [`Snapshot::to_prometheus`] — Prometheus text exposition format
//!   0.0.4 (`# TYPE` comments, **cumulative** `_bucket{le=...}` series,
//!   `_sum`/`_count`), served on `air serve --metrics-addr`.
//!
//! One caveat inherited from the workspace JSON parser
//! (`air_trace::json` keeps numbers as `f64`): integers above 2^53 lose
//! precision on the read side. The only fields that can get there are
//! the `le` bounds of the top histogram buckets, which require single
//! observations ≥ 2^52 (52 days in ns) to materialize — ordering, which
//! is all the validator checks for `le`, survives the f64 round-trip.

use std::fmt::Write as _;

/// `schema` header value of the JSON snapshot document.
pub const SCHEMA_ID: &str = "air-metrics-snapshot/1";

/// One counter series and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: u64,
}

/// One gauge series and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRow {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: i64,
}

/// One non-empty histogram bucket: `count` observations with value
/// `<= le` (and above the previous row's `le`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketRow {
    pub le: u64,
    pub count: u64,
}

/// One histogram series: totals, pre-computed quantile estimates and
/// the non-zero buckets in ascending `le` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramRow {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub buckets: Vec<BucketRow>,
}

/// A captured registry: see module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<CounterRow>,
    pub gauges: Vec<GaugeRow>,
    pub histograms: Vec<HistogramRow>,
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && want
            .iter()
            .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
}

impl Snapshot {
    /// Value of one counter series, `None` if never registered.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|r| r.name == name && labels_match(&r.labels, labels))
            .map(|r| r.value)
    }

    /// Sum of a counter across all label sets (0 if never registered).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.value)
            .sum()
    }

    /// Sum of a counter across the label sets carrying one specific
    /// `key=value` pair — e.g. every `air_serve_warm_lookups_total` row
    /// with `result="hit"`, whatever its other labels say.
    pub fn counter_sum_where(&self, name: &str, key: &str, value: &str) -> u64 {
        self.counters
            .iter()
            .filter(|r| r.name == name && r.labels.iter().any(|(k, v)| k == key && v == value))
            .map(|r| r.value)
            .sum()
    }

    /// Value of one gauge series, `None` if never registered.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|r| r.name == name && labels_match(&r.labels, labels))
            .map(|r| r.value)
    }

    /// One histogram series, `None` if never registered.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramRow> {
        self.histograms
            .iter()
            .find(|r| r.name == name && labels_match(&r.labels, labels))
    }

    /// Render the closed JSON document (single line, sorted series,
    /// deterministic for a given registry state).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":");
        escape_str(SCHEMA_ID, &mut out);
        out.push_str(",\"counters\":[");
        for (i, r) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape_str(&r.name, &mut out);
            out.push_str(",\"labels\":");
            render_labels_json(&r.labels, &mut out);
            let _ = write!(out, ",\"value\":{}}}", r.value);
        }
        out.push_str("],\"gauges\":[");
        for (i, r) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape_str(&r.name, &mut out);
            out.push_str(",\"labels\":");
            render_labels_json(&r.labels, &mut out);
            let _ = write!(out, ",\"value\":{}}}", r.value);
        }
        out.push_str("],\"histograms\":[");
        for (i, r) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape_str(&r.name, &mut out);
            out.push_str(",\"labels\":");
            render_labels_json(&r.labels, &mut out);
            let _ = write!(
                out,
                ",\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                r.count, r.sum, r.p50, r.p90, r.p99
            );
            for (j, b) in r.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"le\":{},\"count\":{}}}", b.le, b.count);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Render Prometheus text exposition format 0.0.4. Histogram
    /// buckets become cumulative `_bucket{le="..."}` series capped by
    /// the mandatory `le="+Inf"` row.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut last_type: Option<(String, String)> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_type.as_ref().map(|(n, k)| (n.as_str(), k.as_str())) != Some((name, kind)) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_type = Some((name.to_string(), kind.to_string()));
            }
        };
        for r in &self.counters {
            type_line(&mut out, &r.name, "counter");
            render_series(&mut out, &r.name, &r.labels, None);
            let _ = writeln!(out, " {}", r.value);
        }
        for r in &self.gauges {
            type_line(&mut out, &r.name, "gauge");
            render_series(&mut out, &r.name, &r.labels, None);
            let _ = writeln!(out, " {}", r.value);
        }
        for r in &self.histograms {
            type_line(&mut out, &r.name, "histogram");
            let bucket_name = format!("{}_bucket", r.name);
            let mut cumulative = 0u64;
            for b in &r.buckets {
                cumulative += b.count;
                render_series(&mut out, &bucket_name, &r.labels, Some(&b.le.to_string()));
                let _ = writeln!(out, " {cumulative}");
            }
            render_series(&mut out, &bucket_name, &r.labels, Some("+Inf"));
            let _ = writeln!(out, " {cumulative}");
            render_series(&mut out, &format!("{}_sum", r.name), &r.labels, None);
            let _ = writeln!(out, " {}", r.sum);
            render_series(&mut out, &format!("{}_count", r.name), &r.labels, None);
            let _ = writeln!(out, " {}", r.count);
        }
        out
    }
}

/// Render `{"k":"v",...}` for a sorted label set.
fn render_labels_json(labels: &[(String, String)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_str(k, out);
        out.push(':');
        escape_str(v, out);
    }
    out.push('}');
}

/// Render `name{k="v",...,le="..."}` (labels elided when empty).
fn render_series(out: &mut String, name: &str, labels: &[(String, String)], le: Option<&str>) {
    out.push_str(name);
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(v, out);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// JSON string-literal escaping (quotes included). `air-metrics` sits
/// below `air-trace` in the crate DAG, so it carries its own copy of
/// this ten-line helper rather than importing `air_trace::json`.
fn escape_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample() -> Snapshot {
        let m = MetricsRegistry::new();
        m.add("air_req_total", &[("tenant", "anon")], 3);
        m.set_gauge("air_queue_depth", &[], 2);
        for v in [5, 5, 900] {
            m.observe("air_lat_ns", &[("temp", "warm")], v);
        }
        m.snapshot()
    }

    #[test]
    fn json_document_shape_is_stable() {
        let json = sample().to_json();
        let schema = air_trace::Schema::parse(include_str!(
            "../../../schemas/metrics-snapshot.schema.json"
        ))
        .unwrap();
        let doc = air_trace::json::parse(&json).unwrap();
        assert_eq!(schema.check(&doc), Ok(None), "{json}");
        assert!(json.starts_with("{\"schema\":\"air-metrics-snapshot/1\""));
        assert!(json
            .contains("{\"name\":\"air_req_total\",\"labels\":{\"tenant\":\"anon\"},\"value\":3}"));
        assert!(json.contains("{\"name\":\"air_queue_depth\",\"labels\":{},\"value\":2}"));
        // 5 -> bucket ub 7 (x2), 900 -> bucket ub 1023 (x1); quantiles
        // are clamped to the largest observation, 900.
        assert!(json.contains(
            "\"count\":3,\"sum\":910,\"p50\":7,\"p90\":900,\"p99\":900,\
             \"buckets\":[{\"le\":7,\"count\":2},{\"le\":1023,\"count\":1}]"
        ));
    }

    #[test]
    fn prometheus_rendering_is_cumulative_with_inf_cap() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE air_req_total counter\n"));
        assert!(text.contains("air_req_total{tenant=\"anon\"} 3\n"));
        assert!(text.contains("# TYPE air_queue_depth gauge\nair_queue_depth 2\n"));
        assert!(text.contains("# TYPE air_lat_ns histogram\n"));
        assert!(text.contains("air_lat_ns_bucket{temp=\"warm\",le=\"7\"} 2\n"));
        assert!(text.contains("air_lat_ns_bucket{temp=\"warm\",le=\"1023\"} 3\n"));
        assert!(text.contains("air_lat_ns_bucket{temp=\"warm\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("air_lat_ns_sum{temp=\"warm\"} 910\n"));
        assert!(text.contains("air_lat_ns_count{temp=\"warm\"} 3\n"));
    }

    #[test]
    fn label_values_are_escaped_in_both_renderings() {
        let m = MetricsRegistry::new();
        m.inc("air_x_total", &[("tenant", "a\"b\\c\nd")]);
        let snap = m.snapshot();
        assert!(snap.to_json().contains("\"a\\\"b\\\\c\\nd\""));
        assert!(snap
            .to_prometheus()
            .contains("air_x_total{tenant=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn lookup_helpers_find_series() {
        let snap = sample();
        assert_eq!(
            snap.counter("air_req_total", &[("tenant", "anon")]),
            Some(3)
        );
        assert_eq!(snap.counter("air_req_total", &[]), None);
        assert_eq!(snap.counter_sum("air_req_total"), 3);
        assert_eq!(snap.gauge("air_queue_depth", &[]), Some(2));
        let h = snap.histogram("air_lat_ns", &[("temp", "warm")]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), h.count);
    }
}
