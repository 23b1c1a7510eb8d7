//! The verification question every entry point poses: does
//! `⟦code⟧pre ⊆ spec` hold over the stores of `vars`, once a [`Strategy`]
//! repairs the base domain [`DomainKind`]?
//!
//! This module is the only owner of how that question is written down:
//!
//! - the `--vars` grammar `"x:-8..8,y:0..20"` ([`parse_vars`],
//!   [`render_vars`]) — the CLI flag, corpus headers and serve requests
//!   all spell variables this way;
//! - the `key "value"` clause reader ([`clause`]) and the corpus header
//!   `# Verified with: vars "…", pre "…", spec "…"` with its optional
//!   `domain "…"` override ([`corpus_header`], [`Question::from_corpus`]);
//! - the sorted `*.imp` corpus listing ([`corpus_files`], [`load_corpus`]);
//! - the one build from a question to its universe, base domain,
//!   program and pre/spec sets ([`Question::build`]);
//! - the names of the base domains, repair strategies and engines, the
//!   one dispatch on a strategy ([`Verifier::verify`]) and the one on an
//!   engine (`Engine::run`, by the rule [`Engine::on_diagrams`]).
//!
//! Fuzz seed files keep a format of their own (`# fuzz:` headers with
//! `=` ranges, see `air_fuzz::seed`); they read it with the same clause
//! reader and `vars` grammar.

use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};

use air_domains::{
    AffineDomain, CongruenceEnv, ConstantEnv, IntervalEnv, OctagonDomain, ParityEnv, SignEnv,
};
use air_lang::gen::DOMAIN_NAMES;
use air_lang::{parse_bexp, parse_program, BExp, Concrete, Reg, StateSet, SymEngine, Universe};

use crate::algebra::{EnumAlgebra, PointedDomain, StateAlgebra, SymAlgebra};
use crate::domain::EnumDomain;
use crate::forward::RepairError;
use crate::symbolic::SymDomain;
use crate::verify::{Verdict, Verifier};

/// A declared bounded variable: `(name, lo, hi)`.
pub type VarDecl = (String, i64, i64);

/// Why a question could not be read or built: the part at fault
/// (`vars`, `header`, `domain`, `universe`, `program`, `pre`, `spec`)
/// and what went wrong. Displays as `part: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuestionError {
    /// The part of the question at fault.
    pub part: &'static str,
    /// What went wrong, without the part.
    pub message: String,
}

impl QuestionError {
    fn new(part: &'static str, message: impl fmt::Display) -> QuestionError {
        QuestionError {
            part,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for QuestionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.part, self.message)
    }
}

/// The base abstract domain a repair starts from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DomainKind {
    /// Intervals (the paper's `Int`). Default.
    #[default]
    Int,
    /// Octagons.
    Oct,
    /// Signs.
    Sign,
    /// Parity.
    Parity,
    /// Constant propagation.
    Const,
    /// Congruences.
    Cong,
    /// Karr's affine equalities.
    Karr,
}

impl DomainKind {
    /// Every base domain, in [`DOMAIN_NAMES`] order.
    pub const ALL: [DomainKind; 7] = [
        DomainKind::Int,
        DomainKind::Oct,
        DomainKind::Sign,
        DomainKind::Parity,
        DomainKind::Const,
        DomainKind::Cong,
        DomainKind::Karr,
    ];

    /// The spelling of the CLI's `--domain`, serve requests and fuzz
    /// seeds: variants are declared in [`DOMAIN_NAMES`] order.
    pub fn name(self) -> &'static str {
        DOMAIN_NAMES[self as usize]
    }

    /// The domain named `s`, else the error `unknown domain `s``.
    pub fn parse(s: &str) -> Result<DomainKind, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown domain `{s}`"))
    }

    /// The domain over `u`, as an enumerated closure.
    pub fn build(self, u: &Universe) -> EnumDomain {
        match self {
            DomainKind::Int => EnumDomain::from_abstraction(u, IntervalEnv::new(u)),
            DomainKind::Oct => EnumDomain::from_abstraction(u, OctagonDomain::new(u)),
            DomainKind::Sign => EnumDomain::from_abstraction(u, SignEnv::new(u)),
            DomainKind::Parity => EnumDomain::from_abstraction(u, ParityEnv::new(u)),
            DomainKind::Const => EnumDomain::from_abstraction(u, ConstantEnv::new(u)),
            DomainKind::Cong => EnumDomain::from_abstraction(u, CongruenceEnv::new(u)),
            DomainKind::Karr => EnumDomain::from_abstraction(u, AffineDomain::new(u)),
        }
    }
}

/// The repair strategy that decides a question.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Backward repair (Algorithm 2). Default.
    #[default]
    Backward,
    /// Forward repair (Algorithm 1).
    Forward,
}

impl Strategy {
    /// The spelling of the CLI's `--strategy` and serve requests.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Backward => "backward",
            Strategy::Forward => "forward",
        }
    }

    /// The strategy named `s`, else the error `unknown strategy `s``.
    pub fn parse(s: &str) -> Result<Strategy, String> {
        [Strategy::Backward, Strategy::Forward]
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown strategy `{s}`"))
    }
}

/// The engine that runs a question's repairs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// Explicit bitset enumeration. Default.
    #[default]
    Enumerative,
    /// Interval decision diagrams on the `Int` base; bitsets elsewhere.
    Symbolic,
}

impl Engine {
    /// The spelling of the CLI's `--engine`.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Enumerative => "enumerative",
            Engine::Symbolic => "symbolic",
        }
    }

    /// The engine named `s`, else the error `unknown engine `s``.
    pub fn parse(s: &str) -> Result<Engine, String> {
        [Engine::Enumerative, Engine::Symbolic]
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown engine `{s}`"))
    }

    /// Whether this engine repairs `base` on decision diagrams: the
    /// symbolic engine does exactly on the `Int` base, the one base whose
    /// closure has a diagram form ([`SymDomain`]).
    pub fn on_diagrams(self, base: &EnumDomain) -> bool {
        self == Engine::Symbolic && base.is_interval()
    }

    /// Answers `q` from `dom` in `alg`, or, where this engine runs `dom`
    /// on diagrams, in an uncached [`SymAlgebra`] from `dom` rebuilt as a
    /// [`SymDomain`], whose grown domains `On::lower` adds back onto
    /// `dom`. The one engine dispatch of every question.
    pub(crate) fn run<'u, Q: OnAlgebra>(
        self,
        universe: &'u Universe,
        alg: &EnumAlgebra<'u>,
        dom: Cow<'_, EnumDomain>,
        q: Q,
    ) -> Q::Out {
        if !self.on_diagrams(&dom) {
            let (alg, lower) = (alg.clone(), Box::new(|d| d));
            return q.run(On { alg, dom, lower });
        }
        let (alg, base) = (SymAlgebra::uncached(SymEngine::new(universe)), dom);
        let points = base.points().iter().map(|p| alg.lift(p));
        let dom = Cow::Owned(SymDomain::interval(universe).with_points(points));
        let kernel = alg.clone();
        let lower = Box::new(move |d: SymDomain| {
            let mut out = base.into_owned();
            out.add_points(d.points().iter().map(|p| kernel.lower(p.clone())));
            out
        });
        q.run(On { alg, dom, lower })
    }
}

/// A question's base domain in the algebra [`Engine::run`] picked, and
/// the way back to an [`EnumDomain`] from a domain grown from it.
pub(crate) struct On<'d, A: StateAlgebra> {
    pub alg: A,
    pub dom: Cow<'d, A::Domain>,
    pub lower: Box<dyn FnOnce(A::Domain) -> EnumDomain + 'd>,
}

/// A question written once over every [`StateAlgebra`].
pub(crate) trait OnAlgebra {
    type Out;
    fn run<A: StateAlgebra>(self, on: On<'_, A>) -> Self::Out;
}

impl Verifier<'_> {
    /// Decides `⟦r⟧input ≤ spec` with `strategy`: the one dispatch
    /// between [`backward`](Self::backward) and
    /// [`forward`](Self::forward).
    ///
    /// # Errors
    ///
    /// Propagates [`RepairError`].
    pub fn verify(
        &self,
        strategy: Strategy,
        domain: EnumDomain,
        r: &Reg,
        input: &StateSet,
        spec: &StateSet,
    ) -> Result<Verdict, RepairError> {
        match strategy {
            Strategy::Backward => self.backward(domain, r, input, spec),
            Strategy::Forward => self.forward(domain, r, input, spec),
        }
    }
}

/// Parses the `vars` grammar: `"x:-8..8, y:0..20"` (blank entries are
/// skipped).
///
/// # Errors
///
/// [`QuestionError`] (part `vars`) for a malformed entry or an empty list.
pub fn parse_vars(spec: &str) -> Result<Vec<VarDecl>, QuestionError> {
    let bad = |m: String| QuestionError::new("vars", m);
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (name, range) = part
            .split_once(':')
            .ok_or_else(|| bad(format!("variable `{part}` lacks `:lo..hi`")))?;
        let (lo, hi) = range
            .split_once("..")
            .ok_or_else(|| bad(format!("range `{range}` lacks `..`")))?;
        let lo = lo
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad lower bound `{lo}`")))?;
        let hi = hi
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad upper bound `{hi}`")))?;
        out.push((name.trim().to_owned(), lo, hi));
    }
    if out.is_empty() {
        return Err(bad("`vars` declared no variables".into()));
    }
    Ok(out)
}

/// Renders declarations in the `vars` grammar, canonically:
/// `"x:-8..8,y:0..20"`.
pub fn render_vars(vars: &[VarDecl]) -> String {
    vars.iter()
        .map(|(n, lo, hi)| format!("{n}:{lo}..{hi}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The store universe of `vars`.
///
/// # Errors
///
/// [`QuestionError`] (part `universe`) for empty ranges or a universe
/// above the enumerable bound.
pub fn universe(vars: &[VarDecl]) -> Result<Universe, QuestionError> {
    let decls: Vec<(&str, i64, i64)> = vars
        .iter()
        .map(|(n, lo, hi)| (n.as_str(), *lo, *hi))
        .collect();
    Universe::new(&decls).map_err(|e| QuestionError::new("universe", e))
}

/// The stores of `u` satisfying `b`; `part` names the guard in errors.
///
/// # Errors
///
/// [`QuestionError`] when `b` cannot be evaluated over `u`.
pub fn sat(u: &Universe, part: &'static str, b: &BExp) -> Result<StateSet, QuestionError> {
    Concrete::new(u)
        .sat(b)
        .map_err(|e| QuestionError::new(part, e))
}

/// The quoted value of `key "…"` in a header line.
pub fn clause<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("{key} \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The `# Verified with:` header line of a corpus program, if any.
pub fn corpus_header(text: &str) -> Option<&str> {
    text.lines()
        .filter(|l| l.trim_start().starts_with('#'))
        .find(|l| l.contains("Verified with:"))
}

/// The `*.imp` files directly under `dir`, sorted: the canonical item
/// order of every corpus sweep.
///
/// # Errors
///
/// A message when `dir` cannot be read or holds no `*.imp` file.
pub fn corpus_files(dir: &str) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir `{dir}`: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "imp"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no *.imp programs under `{dir}`"));
    }
    Ok(files)
}

/// Reads every program under `dir` ([`corpus_files`] order) with its
/// header: `(file stem, question)` pairs, `domain` unless a header
/// overrides it.
///
/// # Errors
///
/// [`QuestionError`] for an unreadable directory or file, or a file
/// without a complete header.
pub fn load_corpus(
    dir: &str,
    domain: DomainKind,
) -> Result<Vec<(String, Question)>, QuestionError> {
    corpus_files(dir)
        .map_err(|e| QuestionError::new("corpus", e))?
        .iter()
        .map(|path| Question::read_corpus_file(path, domain))
        .collect()
}

/// A verification question as every entry point receives it: text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Question {
    /// Declared variables.
    pub vars: Vec<VarDecl>,
    /// Program source (the Imp-like surface syntax).
    pub code: String,
    /// Precondition (a boolean expression).
    pub pre: String,
    /// Specification; `None` asks for a derivation only (`air prove`).
    pub spec: Option<String>,
    /// Base domain.
    pub domain: DomainKind,
}

/// A [`Question`] evaluated over its universe.
#[derive(Clone, Debug)]
pub struct Built {
    /// The store universe of the question's `vars`.
    pub universe: Universe,
    /// The base domain over it.
    pub domain: EnumDomain,
    /// The parsed program.
    pub program: Reg,
    /// The precondition's stores.
    pub pre: StateSet,
    /// The specification's stores (every store when there is no spec).
    pub spec: StateSet,
}

impl Question {
    /// Reads a corpus program from `path` (see
    /// [`from_corpus`](Self::from_corpus)) with its file stem.
    ///
    /// # Errors
    ///
    /// [`QuestionError`] for an unreadable file or a bad header.
    pub fn read_corpus_file(
        path: &Path,
        domain: DomainKind,
    ) -> Result<(String, Question), QuestionError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            QuestionError::new("corpus", format!("cannot read `{}`: {e}", path.display()))
        })?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        Ok((
            name,
            Question::from_corpus(&path.display().to_string(), text, domain)?,
        ))
    }

    /// The question a corpus program poses: `text` is the program, its
    /// `# Verified with:` header gives `vars`, `pre`, `spec` and
    /// optionally `domain` (else `domain`). `origin` names the file in
    /// errors.
    ///
    /// # Errors
    ///
    /// [`QuestionError`] for a missing header or clause, or a bad `vars`
    /// or `domain` clause.
    pub fn from_corpus(
        origin: &str,
        text: String,
        domain: DomainKind,
    ) -> Result<Question, QuestionError> {
        let header = corpus_header(&text).ok_or_else(|| {
            QuestionError::new(
                "header",
                format!("{origin}: missing `# Verified with:` header"),
            )
        })?;
        let get = |key: &str| {
            clause(header, key).ok_or_else(|| {
                QuestionError::new("header", format!("{origin}: header lacks `{key} \"...\"`"))
            })
        };
        let [vars, pre, spec] = ["vars", "pre", "spec"].map(get);
        let (vars, pre, spec) = (vars?, pre?.to_owned(), spec?.to_owned());
        let domain = match clause(header, "domain") {
            Some(d) => DomainKind::parse(d).map_err(|e| QuestionError::new("domain", e))?,
            None => domain,
        };
        Ok(Question {
            vars: parse_vars(vars)?,
            code: text,
            pre,
            spec: Some(spec),
            domain,
        })
    }

    /// The program and the pre/spec stores over `u`, a universe of this
    /// question's `vars` (serve reuses a warm one).
    ///
    /// # Errors
    ///
    /// [`QuestionError`] for a program or guard that does not parse or
    /// evaluate.
    pub fn parts(&self, u: &Universe) -> Result<(Reg, StateSet, StateSet), QuestionError> {
        let program = parse_program(&self.code).map_err(|e| QuestionError::new("program", e))?;
        let guard = |part, text: &str| match parse_bexp(text) {
            Ok(b) => sat(u, part, &b),
            Err(e) => Err(QuestionError::new(part, e)),
        };
        let pre = guard("pre", &self.pre)?;
        let spec = match &self.spec {
            Some(s) => guard("spec", s)?,
            None => u.full(),
        };
        Ok((program, pre, spec))
    }

    /// Builds the universe, base domain, program and pre/spec stores.
    ///
    /// # Errors
    ///
    /// The first [`QuestionError`] of [`universe`] and
    /// [`parts`](Self::parts).
    pub fn build(&self) -> Result<Built, QuestionError> {
        let universe = universe(&self.vars)?;
        let (program, pre, spec) = self.parts(&universe)?;
        Ok(Built {
            domain: self.domain.build(&universe),
            universe,
            program,
            pre,
            spec,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_grammar_round_trips_and_rejects_malformed_lists() {
        let vars = parse_vars("x:-8..8, y:0..20").unwrap();
        assert_eq!(vars, vec![("x".into(), -8, 8), ("y".into(), 0, 20)]);
        assert_eq!(render_vars(&vars), "x:-8..8,y:0..20");
        for bad in ["x", "x:1-2", "x:a..b", "", " , "] {
            let e = parse_vars(bad).unwrap_err();
            assert_eq!(e.part, "vars", "{bad}");
        }
    }

    #[test]
    fn clause_extracts_quoted_values() {
        let h = r#"# Verified with: vars "x:-8..8", pre "x != 0", spec "x >= 1"."#;
        assert_eq!(clause(h, "vars"), Some("x:-8..8"));
        assert_eq!(clause(h, "pre"), Some("x != 0"));
        assert_eq!(clause(h, "spec"), Some("x >= 1"));
        assert_eq!(clause(h, "domain"), None);
        assert_eq!(clause(r#"pre "unterminated"#, "pre"), None);
    }

    #[test]
    fn names_parse_back() {
        for kind in DomainKind::ALL {
            assert_eq!(DomainKind::parse(kind.name()), Ok(kind));
        }
        assert_eq!(
            DomainKind::parse("poly"),
            Err("unknown domain `poly`".into())
        );
        for s in [Strategy::Backward, Strategy::Forward] {
            assert_eq!(Strategy::parse(s.name()), Ok(s));
        }
        assert!(Strategy::parse("sideways").is_err());
        for e in [Engine::Enumerative, Engine::Symbolic] {
            assert_eq!(Engine::parse(e.name()), Ok(e));
        }
        assert!(Engine::parse("quantum").is_err());
    }

    #[test]
    fn the_symbolic_engine_runs_diagrams_exactly_on_int() {
        let u = Universe::new(&[("x", -2, 2)]).unwrap();
        for kind in DomainKind::ALL {
            let base = kind.build(&u);
            assert!(!Engine::Enumerative.on_diagrams(&base));
            assert_eq!(Engine::Symbolic.on_diagrams(&base), kind == DomainKind::Int);
        }
        let toy = EnumDomain::from_family(&u, "Int", []);
        assert!(!Engine::Symbolic.on_diagrams(&toy), "by type, not by name");
    }

    #[test]
    fn every_domain_builds_and_is_named_like_the_registry() {
        let u = Universe::new(&[("x", -2, 2)]).unwrap();
        let names: Vec<&str> = DomainKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, DOMAIN_NAMES);
        for kind in DomainKind::ALL {
            assert!(kind.build(&u).close(&u.empty()).is_subset(&u.full()));
        }
    }

    #[test]
    fn corpus_header_builds_the_question_with_its_domain_override() {
        let text = "# Verified with: vars \"x:0..3\", pre \"x = 0\", spec \"x = 1\", domain \"karr\".\nx := x + 1\n";
        let q = Question::from_corpus("t.imp", text.into(), DomainKind::Int).unwrap();
        assert_eq!(q.domain, DomainKind::Karr);
        let built = q.build().unwrap();
        assert_eq!(built.pre, built.universe.of_values([0]));
        let v = Verifier::new(&built.universe)
            .verify(
                Strategy::Forward,
                built.domain,
                &built.program,
                &built.pre,
                &built.spec,
            )
            .unwrap();
        assert!(v.is_proved());
        let missing = Question::from_corpus("t.imp", "skip".into(), DomainKind::Int);
        assert_eq!(
            missing.unwrap_err().message,
            "t.imp: missing `# Verified with:` header"
        );
    }

    #[test]
    fn build_names_the_part_at_fault() {
        let q = |vars: &str, code: &str, pre: &str, spec: Option<&str>| Question {
            vars: parse_vars(vars).unwrap(),
            code: code.into(),
            pre: pre.into(),
            spec: spec.map(str::to_owned),
            domain: DomainKind::Int,
        };
        let part = |q: Question| q.build().unwrap_err().part;
        assert_eq!(part(q("x:5..0", "skip", "true", None)), "universe");
        assert_eq!(part(q("x:0..1", "x := (", "true", None)), "program");
        assert_eq!(part(q("x:0..1", "skip", "x <", None)), "pre");
        assert_eq!(part(q("x:0..1", "skip", "true", Some("y > 0"))), "spec");
        let built = q("x:0..1", "skip", "true", None).build().unwrap();
        assert_eq!(built.spec, built.universe.full(), "no spec asks nothing");
    }

    #[test]
    fn the_repository_corpus_loads_in_file_order() {
        let dir = format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"));
        let corpus = load_corpus(&dir, DomainKind::Int).unwrap();
        let names: Vec<&str> = corpus.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(names.contains(&"absval"), "{names:?}");
        assert!(corpus_files("/nonexistent-air-corpus").is_err());
    }
}
