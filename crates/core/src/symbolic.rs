//! The symbolic state algebra — Algorithm 2 on decision diagrams.
//!
//! Routing the enumerative algebra's *semantic* queries through a
//! symbolic [`SemCache`](air_lang::SemCache) (the Level-A backend switch)
//! accelerates `exec`/`wlp`/`sat` but still pays `O(|Σ|)` per abstract
//! closure, because [`EnumDomain`](crate::EnumDomain) wraps an enumerated
//! `γ∘α`; on universes with 10⁶+ states that cost dominates.
//!
//! This module is the Level-B replacement for the one base domain whose
//! closure has a cheap symbolic form: intervals. [`SymDomain`] represents
//! `Int ⊞ N` directly on [`SymState`] diagrams — the base closure is the
//! bounding box of the diagram (exactly `γ(α(c))` of `IntervalEnv` on a
//! finite universe) and points are diagrams, so the refined closure never
//! enumerates a store. [`SymAlgebra`] plugs it into the crate's one
//! Algorithm 2 and one abstract semantics: one algorithm, two algebras.
//! The symbolic concrete semantics is exact and the closures coincide, so
//! verdicts are byte-identical — the property fuzz axis 9 and the
//! backend-agreement suites check on enumerable universes.

use air_lang::ast::{Exp, Reg};
use air_lang::{SemError, StateSet, SymEngine, Universe};
use air_lattice::{SymShape, SymState};

use crate::algebra::{PointedDomain, StateAlgebra, StoreSet};

/// The pointed refinement `Int ⊞ N` over decision diagrams.
///
/// The base closure is the bounding box `γ(α(c))` of the interval
/// abstraction: on a finite universe `IntervalEnv`'s `α` is the per-variable
/// hull and `γ` clamps to the variable ranges, which is exactly
/// [`SymState::hull`] re-materialized with [`SymState::from_box`]. Points
/// refine it by meets, as in Section 3.1 of the paper.
#[derive(Clone, Debug)]
pub struct SymDomain {
    shape: SymShape,
    var_ranges: Vec<(i64, i64)>,
    points: Vec<SymState>,
}

impl SymDomain {
    /// The interval base domain (no added points) over `universe`.
    pub fn interval(universe: &Universe) -> Self {
        let var_ranges: Vec<(i64, i64)> = (0..universe.num_vars())
            .map(|i| universe.var_range(i))
            .collect();
        SymDomain {
            shape: SymShape::new(&var_ranges),
            var_ranges,
            points: Vec::new(),
        }
    }

    /// The base closure `Int(c)`: the bounding box of `c`.
    pub fn base_close(&self, c: &SymState) -> SymState {
        match c.hull() {
            Some(bx) => SymState::from_box(&self.shape, &bx),
            None => SymState::empty(&self.shape),
        }
    }

    /// The base widening `γ(α(x) ∇_Int α(y))`: per variable, an unstable
    /// lower bound drops to `-∞` and an unstable upper bound to `+∞`
    /// (clamped by `γ` to the variable's universe range), exactly the
    /// interval widening `EnumDomain` enumerates. Empty sides pass
    /// through (the env widening forwards `⊥` unchanged).
    pub fn base_widen(&self, x: &SymState, y: &SymState) -> SymState {
        let Some(xh) = x.hull() else {
            return self.base_close(y);
        };
        let Some(yh) = y.hull() else {
            return self.base_close(x);
        };
        let bx: Vec<(i64, i64)> = self
            .var_ranges
            .iter()
            .enumerate()
            .map(|(i, &(vlo, vhi))| {
                let lo = if xh[i].0 <= yh[i].0 { xh[i].0 } else { vlo };
                let hi = if yh[i].1 <= xh[i].1 { xh[i].1 } else { vhi };
                (lo, hi)
            })
            .collect();
        SymState::from_box(&self.shape, &bx)
    }
}

impl StoreSet for SymState {
    fn intersection(&self, other: &Self) -> Self {
        self.intersect(other)
    }

    fn is_subset(&self, other: &Self) -> bool {
        SymState::is_subset(self, other)
    }

    fn size(&self) -> usize {
        usize::try_from(self.count()).unwrap_or(usize::MAX)
    }
}

impl PointedDomain for SymDomain {
    type Set = SymState;

    fn close(&self, c: &SymState) -> SymState {
        let mut acc = self.base_close(c);
        for p in &self.points {
            if c.is_subset(p) {
                acc = acc.intersect(p);
            }
        }
        acc
    }

    fn join(&self, x: &SymState, y: &SymState) -> SymState {
        self.close(&x.union(y))
    }

    fn pointed_widen(&self, x: &SymState, y: &SymState) -> SymState {
        let mut acc = self.base_widen(x, y);
        for p in &self.points {
            if x.is_subset(p) && y.is_subset(p) {
                acc = acc.intersect(p);
            }
        }
        acc
    }

    fn with_points<I: IntoIterator<Item = SymState>>(&self, ps: I) -> Self {
        let mut d = self.clone();
        for p in ps {
            if d.close(&p) != p {
                d.points.push(p);
            }
        }
        d
    }
}

/// The symbolic algebra: [`SymState`] diagrams, [`SymDomain`] closures and
/// the exact [`SymEngine`] transformers. It memoizes nothing, so every
/// abstract image is recomputed and every star round reaches the
/// governor.
#[derive(Clone, Debug)]
pub struct SymAlgebra<'u> {
    engine: SymEngine<'u>,
}

impl<'u> SymAlgebra<'u> {
    /// The symbolic algebra over `universe`.
    pub fn new(universe: &'u Universe) -> Self {
        SymAlgebra {
            engine: SymEngine::new(universe),
        }
    }
}

impl StateAlgebra for SymAlgebra<'_> {
    type Set = SymState;
    type Domain = SymDomain;
    type Term = ();

    fn image(&self, _t: (), e: &Exp, a: &SymState) -> Result<SymState, SemError> {
        self.engine.exec_exp(false, e, a)
    }

    fn wlp(&self, _t: (), r: &Reg, post: &SymState) -> Result<SymState, SemError> {
        self.engine.wlp_reg(r, post)
    }

    fn lift(&self, s: &StateSet) -> SymState {
        self.engine.from_set(s)
    }

    fn lower(&self, s: SymState) -> StateSet {
        self.engine.to_set(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::{AbstractSemantics, StarStrategy};
    use crate::backward::{BackwardRepair, UnrollStrategy};
    use crate::domain::EnumDomain;
    use air_domains::IntervalEnv;
    use air_lang::{parse_bexp, parse_program};
    use air_lattice::ExhaustReason;

    fn int_dom(u: &Universe) -> EnumDomain {
        EnumDomain::from_abstraction(u, IntervalEnv::new(u))
    }

    #[test]
    fn sym_domain_close_matches_enum_domain() {
        let u = Universe::new(&[("x", -8, 8), ("y", 0, 3)]).unwrap();
        let alg = SymAlgebra::new(&u);
        let probes = [
            u.empty(),
            u.full(),
            u.filter(|s| s[0] % 2 != 0),
            u.filter(|s| s[0] * s[0] + s[1] < 10),
            u.filter(|s| s[0] == 3 && s[1] == 1),
        ];
        // Without points, then with the nonzero set and an odd-ish scatter.
        let points = [u.filter(|s| s[0] != 0), u.filter(|s| s[0] % 3 == 1)];
        let edom = int_dom(&u).with_points(points.iter().cloned());
        let sdom = SymDomain::interval(&u).with_points(points.iter().map(|p| alg.lift(p)));
        for (e, s) in [(int_dom(&u), SymDomain::interval(&u)), (edom, sdom)] {
            for c in &probes {
                let sym = alg.lower(s.close(&alg.lift(c)));
                assert_eq!(sym, e.close(c), "closures must coincide");
            }
            for (a, b) in probes.iter().zip(probes.iter().rev()) {
                let sym = alg.lower(s.pointed_widen(&alg.lift(a), &alg.lift(b)));
                assert_eq!(sym, e.pointed_widen(a, b), "widenings must coincide");
            }
        }
    }

    /// The main corpus (`corpus/*.imp`) at the universes of its
    /// `# Verified with:` headers: name, program, universe, pre, spec.
    fn corpus() -> Vec<(String, Reg, Universe, StateSet, StateSet)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "imp"))
            .collect();
        files.sort();
        assert!(files.len() >= 6, "corpus not found");
        let load = |path: &std::path::PathBuf| {
            let src = std::fs::read_to_string(path).unwrap();
            let header = src
                .lines()
                .find_map(|l| l.strip_prefix("# Verified with: "));
            // vars "…", pre "…", spec "…".
            let fields: Vec<&str> = header.unwrap().split('"').skip(1).step_by(2).collect();
            let decls: Vec<(&str, i64, i64)> = fields[0]
                .split(',')
                .map(|d| {
                    let (name, range) = d.split_once(':').unwrap();
                    let (lo, hi) = range.split_once("..").unwrap();
                    (name, lo.parse().unwrap(), hi.parse().unwrap())
                })
                .collect();
            let u = Universe::new(&decls).unwrap();
            let sat = |b: &str| air_lang::Concrete::new(&u).sat(&parse_bexp(b).unwrap());
            let (pre, spec) = (sat(fields[1]).unwrap(), sat(fields[2]).unwrap());
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            (name, parse_program(&src).unwrap(), u, pre, spec)
        };
        files.iter().map(load).collect()
    }

    /// `⟦·⟧♯` in the two algebras agrees image for image: the
    /// hand-picked inputs below plus every corpus program on its pre,
    /// under both star strategies.
    #[test]
    fn symbolic_absint_matches_enumerative() {
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 20)]).unwrap();
        let prog =
            parse_program("i := 1; j := 0; while (i <= 5) do { j := j + i; i := i + 1 }").unwrap();
        let mut cases: Vec<_> = corpus()
            .into_iter()
            .map(|(name, prog, u, pre, _)| (name, prog, u, pre))
            .collect();
        for input in [u.full(), u.filter(|s| s[0] <= 2), u.empty()] {
            cases.push(("gauss-inline".to_string(), prog.clone(), u.clone(), input));
        }
        for (name, prog, u, input) in &cases {
            let edom = int_dom(u);
            let sdom = SymDomain::interval(u);
            let alg = SymAlgebra::new(u);
            for strategy in [StarStrategy::Lfp, StarStrategy::PointedWidening] {
                let e = AbstractSemantics::new(u)
                    .star_strategy(strategy)
                    .exec(&edom, prog, &edom.close(input))
                    .unwrap();
                let s = AbstractSemantics::from_algebra(u, alg.clone())
                    .star_strategy(strategy)
                    .exec(&sdom, prog, &sdom.close(&alg.lift(input)))
                    .unwrap();
                assert_eq!(alg.lower(s), e, "{name} under {strategy:?}");
            }
        }
    }

    /// Algorithm 2 in the two algebras agrees outcome for outcome — valid
    /// input, points in discovery order, call and `inv` counts — on the
    /// countdown loop and every corpus program, under both unroll
    /// strategies.
    #[test]
    fn symbolic_backward_matches_enumerative() {
        let u = Universe::new(&[("x", -2, 6), ("y", -2, 6)]).unwrap();
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0 && s[0] <= 3);
        let spec = u.filter(|s| s[1] == 0);
        let mut cases = vec![("countdown".to_string(), prog, u, pre, spec)];
        cases.extend(corpus());
        for (name, prog, u, pre, spec) in &cases {
            let edom = int_dom(u);
            let sdom = SymDomain::interval(u);
            for strategy in [UnrollStrategy::Join, UnrollStrategy::PointedWidening] {
                let enm = BackwardRepair::new(u)
                    .unroll_strategy(strategy)
                    .repair(&edom, pre, prog, spec)
                    .unwrap();
                let sym = BackwardRepair::from_algebra(u, SymAlgebra::new(u))
                    .unroll_strategy(strategy)
                    .repair(&sdom, pre, prog, spec)
                    .unwrap();
                let case = format!("{name} under {strategy:?}");
                assert_eq!(sym.valid_input, enm.valid_input, "{case}");
                assert_eq!(sym.points, enm.points, "{case}: point discovery order");
                assert_eq!(sym.calls, enm.calls, "{case}");
                assert_eq!(sym.inv_iterations, enm.inv_iterations, "{case}");
            }
        }
    }

    #[test]
    fn symbolic_backward_max_calls_exhaustion_matches() {
        let u = Universe::new(&[("x", 0, 4)]).unwrap();
        let prog = parse_program("while (x < 4) do { x := x + 1 }").unwrap();
        let err = BackwardRepair::from_algebra(&u, SymAlgebra::new(&u))
            .max_calls(1)
            .repair(
                &SymDomain::interval(&u),
                &u.of_values([0]),
                &prog,
                &u.empty(),
            )
            .unwrap_err();
        let Some(exhaustion) = err.exhaustion() else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(exhaustion.phase, "repair.backward.max_calls");
        assert_eq!(exhaustion.reason, ExhaustReason::Fuel);
    }
}
