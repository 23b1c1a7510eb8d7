//! The benchmark of record for the AIR reproduction (see `README.md`).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify-cold|serve-edit|fuzz-campaign \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`; `--seconds` sizes the fixed
//! work lists, which always run to completion. Every answer is checked
//! against a known answer. With `--trace 0` the run prints the
//! end-to-end metrics of its untraced rounds; with `--trace 1` it runs
//! each round's list untraced and traced and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod fuzz_campaign;
mod harness;
mod measure;
mod oneshot;
mod serve_edit;
mod verify_cold;

use std::process::ExitCode;

use harness::{Config, Outcome};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["verify-cold", "serve-edit", "fuzz-campaign"];

/// End-to-end metrics: the same names on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics. Every traced run prints all of them; a layer a
/// workload never calls reads 0 there.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut rows: Vec<(String, &'static str)> = [
        ("lang.parse_ms", "ms"),
        ("lang.sat_ms", "ms"),
        ("core.domain_build_ms", "ms"),
        ("core.verify_ms", "ms"),
        ("core.report_ms", "ms"),
        ("op.time_to_verdict_ms", "ms"),
        ("lang.exec_lookups", "count"),
        ("lang.exec_hit_ratio", "ratio"),
        ("lang.wlp_lookups", "count"),
        ("lang.wlp_hit_ratio", "ratio"),
        ("lang.sat_lookups", "count"),
        ("lang.sat_hit_ratio", "ratio"),
        ("lang.bypasses", "count"),
        ("lattice.closure_lookups", "count"),
        ("lattice.closure_hit_ratio", "ratio"),
        ("lang.intern_lookups", "count"),
        ("lang.intern_hit_ratio", "ratio"),
        ("core.points_added", "count"),
        ("serve.decode_ms", "ms"),
        ("serve.admit_ms", "ms"),
        ("serve.handle_ms", "ms"),
        ("serve.settle_ms", "ms"),
        ("serve.encode_ms", "ms"),
        ("serve.transport_queue_ms", "ms"),
        ("serve.served", "count"),
        ("serve.warm_hit_ratio", "ratio"),
        ("serve.reuse_nodes", "count"),
        ("serve.reuse_ratio", "ratio"),
        ("serve.table_sets", "count"),
        ("fuzz.generate_ms", "ms"),
        ("fuzz.build_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    rows.extend(
        fuzz_campaign::ORACLE_SPANS
            .iter()
            .map(|(_, metric)| (metric.to_string(), "ms")),
    );
    rows.extend(
        [
            ("fuzz.diff_sweep_ms", "ms"),
            ("fuzz.cases", "count"),
            ("fuzz.oracle_runs", "count"),
            ("fuzz.eval_skip_ratio", "ratio"),
            ("fuzz.build_skip_ratio", "ratio"),
            ("trace.overhead_pct", "%"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    rows
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.max(1),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` is 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "`--workload` must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            cfg.workload
        ));
    }
    Ok(cfg)
}

fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "verify-cold" => verify_cold::run(cfg),
        "serve-edit" => serve_edit::run(cfg),
        "fuzz-campaign" => fuzz_campaign::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Renders the result line with every declared metric of the run's mode.
fn result_json(cfg: &Config, out: &Outcome) -> Result<String, String> {
    let declared: Vec<(String, &str)> = if cfg.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric `{extra}` is not declared"));
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };
    for e in &out.errors {
        eprintln!("INCORRECT: {e}");
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let line = match result_json(&cfg, &out) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let units: std::collections::BTreeMap<String, &str> = per_layer()
        .into_iter()
        .chain(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect();
    for (name, value) in &out.metrics {
        println!(
            "{name} = {value} {}",
            units.get(name).copied().unwrap_or("")
        );
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = air::trace::json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("array")
                .iter()
                .map(|row| {
                    let field = |f: &str| {
                        row.get(f)
                            .and_then(|v| v.as_str())
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let cfg = parse_args(&args(
            "--workload fuzz-campaign --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 3, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload serve-edit --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve-edit --seed")).is_err());
    }
}
