//! The symbolic pointed domain — Algorithms 1 and 2 on decision diagrams.
//!
//! The enumerative algebra pays `O(|Σ|)` per abstract closure, because
//! [`EnumDomain`](crate::EnumDomain) wraps an enumerated `γ∘α`; on
//! universes with 10⁶+ states that cost dominates. This module covers the
//! one base domain whose closure has a cheap symbolic form: intervals.
//! [`SymDomain`] represents `Int ⊞ N` directly on [`SymState`] diagrams —
//! the base closure is the bounding box of the diagram (exactly `γ(α(c))`
//! of `IntervalEnv` on a finite universe) and points are diagrams, so the
//! refined closure never enumerates a store. Paired with the diagram
//! kernel it is [`SymAlgebra`](crate::SymAlgebra): the crate's one
//! [`Algebra`](crate::Algebra) and one set of engines on a second kernel.
//! Every question on [`Engine::Symbolic`](crate::Engine) runs it for `Int`
//! bases ([`Engine::on_diagrams`](crate::Engine::on_diagrams)); every
//! other base runs the bitset kernel. The diagram
//! kernel is exact and the closures coincide, so verdicts are
//! byte-identical — the property fuzz axis 9 and the backend-agreement
//! suites check on enumerable universes.

use air_lang::Universe;
use air_lattice::{SymShape, SymState};

use crate::algebra::PointedDomain;

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

    fn points(&self) -> &[SymState] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::{AbstractSemantics, StarStrategy};
    use crate::algebra::{StateAlgebra, SymAlgebra};
    use crate::backward::{BackwardRepair, UnrollStrategy};
    use crate::domain::EnumDomain;
    use crate::forward::ForwardRepair;
    use air_domains::IntervalEnv;
    use air_lang::{parse_program, Reg, StateSet, SymEngine};
    use air_lattice::ExhaustReason;

    fn int_dom(u: &Universe) -> EnumDomain {
        EnumDomain::from_abstraction(u, IntervalEnv::new(u))
    }

    #[test]
    fn sym_domain_close_matches_enum_domain() {
        let u = Universe::new(&[("x", -8, 8), ("y", 0, 3)]).unwrap();
        let alg = SymAlgebra::uncached(SymEngine::new(&u));
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
        let dir = format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"));
        let corpus = crate::question::load_corpus(&dir, crate::DomainKind::Int).unwrap();
        assert!(corpus.len() >= 6, "corpus not found");
        corpus
            .into_iter()
            .map(|(name, q)| {
                let b = q.build().unwrap();
                (name, b.program, b.universe, b.pre, b.spec)
            })
            .collect()
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
            let alg = SymAlgebra::uncached(SymEngine::new(u));
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
                let sym = BackwardRepair::from_algebra(u, SymAlgebra::uncached(SymEngine::new(u)))
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

    /// Algorithm 1 in the two algebras agrees outcome for outcome — the
    /// under-approximation, points in discovery order with their
    /// provenance, and the repair, restart and obligation counts — on the
    /// countdown loop and every corpus program.
    #[test]
    fn symbolic_forward_matches_enumerative() {
        let u = Universe::new(&[("x", -2, 6), ("y", -2, 6)]).unwrap();
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0 && s[0] <= 3);
        let mut cases = vec![("countdown".to_string(), prog, u, pre)];
        cases.extend(
            corpus()
                .into_iter()
                .map(|(name, prog, u, pre, _)| (name, prog, u, pre)),
        );
        for (name, prog, u, pre) in &cases {
            let alg = SymAlgebra::uncached(SymEngine::new(u));
            let enm = ForwardRepair::new(u).repair(int_dom(u), prog, pre).unwrap();
            let sym = ForwardRepair::from_algebra(u, alg.clone())
                .repair(SymDomain::interval(u), prog, pre)
                .unwrap();
            let sym_points: Vec<StateSet> = sym
                .domain
                .points()
                .iter()
                .map(|p| alg.lower(p.clone()))
                .collect();
            assert_eq!(sym.under, enm.under, "{name}");
            assert_eq!(
                sym_points,
                enm.domain.points(),
                "{name}: point discovery order"
            );
            assert_eq!(sym.provenance, enm.provenance, "{name}");
            assert_eq!(sym.repairs, enm.repairs, "{name}");
            assert_eq!(sym.analysis_runs, enm.analysis_runs, "{name}");
            assert_eq!(sym.obligations_checked, enm.obligations_checked, "{name}");
        }
    }

    #[test]
    fn symbolic_backward_max_calls_exhaustion_matches() {
        let u = Universe::new(&[("x", 0, 4)]).unwrap();
        let prog = parse_program("while (x < 4) do { x := x + 1 }").unwrap();
        let err = BackwardRepair::from_algebra(&u, SymAlgebra::uncached(SymEngine::new(&u)))
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
