//! The replayable seed-file format under `corpus/fuzz/`.
//!
//! A seed file is a valid `.imp` program preceded by comment headers
//! carrying the rest of the instance, in the same `key "value"` clause
//! style as the corpus' `# Verified with:` lines (and read by the same
//! [`clause`] reader; `vars` ranges are written `x=lo..hi`):
//!
//! ```text
//! # air-fuzz seed 42
//! # fuzz: domain "int" vars "x=-4..4,y=-2..2" pre "x < 0" spec "true"
//! # oracle: soundness
//! # note: §3.2: abstract semantics unsound for int
//! x := 0 - x
//! ```
//!
//! `# oracle:` and `# note:` are optional provenance (which oracle the
//! case once violated and with what message). Programs are printed with
//! [`Reg::to_source`](air_lang::Reg), so any shrunk or generated command
//! round-trips through the parser.

use crate::case::FuzzCase;
use air_core::question::{clause, parse_vars, render_vars};
use air_lang::{parse_bexp, parse_program};

/// Renders a case (plus optional provenance) as a seed file.
pub fn render(case: &FuzzCase, oracle: Option<&str>, note: Option<&str>) -> String {
    let vars = render_vars(&case.decls).replace(':', "=");
    let mut out = format!(
        "# air-fuzz seed {}\n# fuzz: domain \"{}\" vars \"{vars}\" pre \"{}\" spec \"{}\"\n",
        case.seed, case.domain, case.pre, case.spec
    );
    if let Some(oracle) = oracle {
        out.push_str(&format!("# oracle: {oracle}\n"));
    }
    if let Some(note) = note {
        out.push_str(&format!("# note: {}\n", note.replace('\n', " ")));
    }
    out.push_str(&case.program.to_source());
    out.push('\n');
    out
}

/// Parses a seed file back into a [`FuzzCase`].
///
/// # Errors
///
/// A message naming the missing or malformed header/program part.
pub fn parse(text: &str) -> Result<FuzzCase, String> {
    let mut seed = 0u64;
    let mut domain = None;
    let mut vars = None;
    let mut pre = None;
    let mut spec = None;
    let mut program_lines = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("# air-fuzz seed ") {
            seed = rest
                .trim()
                .parse()
                .map_err(|e| format!("bad seed `{rest}`: {e}"))?;
        } else if trimmed.starts_with("# fuzz:") {
            [domain, vars, pre, spec] =
                ["domain", "vars", "pre", "spec"].map(|key| clause(trimmed, key));
        } else if trimmed.starts_with('#') || trimmed.is_empty() {
            // Provenance and blank lines.
        } else {
            program_lines.push(line);
        }
    }
    let domain = domain.ok_or("missing `domain` clause")?;
    let vars = vars.ok_or("missing `vars` clause")?;
    let pre = pre.ok_or("missing `pre` clause")?;
    let spec = spec.ok_or("missing `spec` clause")?;
    // The `vars` grammar with `=` for `:` (names and bounds hold neither).
    let decls = parse_vars(&vars.replace('=', ":")).map_err(|e| e.message)?;
    let program_src = program_lines.join("\n");
    if program_src.trim().is_empty() {
        return Err("missing program text".to_string());
    }
    Ok(FuzzCase {
        seed,
        decls,
        domain: domain.to_owned(),
        program: parse_program(&program_src).map_err(|e| format!("program: {e}"))?,
        pre: parse_bexp(pre).map_err(|e| format!("pre: {e}"))?,
        spec: parse_bexp(spec).map_err(|e| format!("spec: {e}"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trips_generated_cases() {
        for seed in 0..100 {
            let case = FuzzCase::generate(seed);
            let text = render(&case, Some("soundness"), Some("line one\nline two"));
            let back = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(case, back, "seed {seed} failed to round-trip:\n{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_files() {
        assert!(parse("").is_err());
        assert!(parse("x := 1").is_err()); // no headers
        assert!(
            parse("# fuzz: domain \"int\" vars \"x=0..1\" pre \"true\" spec \"true\"").is_err()
        ); // no program
        assert!(parse(
            "# fuzz: domain \"int\" vars \"x=zero..1\" pre \"true\" spec \"true\"\nskip"
        )
        .is_err());
    }
}
