//! The diagram kernel: basic commands, guards and set operations over
//! [`SymState`] sets.
//!
//! [`SymEngine`] is the [`SetKernel`] on symbolic interval-decision-diagram
//! state sets, so the cost of a transfer function scales with the
//! *description* of a set rather than the universe's cardinality.
//! Compound commands and both Kleene stars are the kernel-independent
//! recursion of [`SetKernel::exec_in`]/[`SetKernel::wlp_in`]. The kernel
//! is **exact**, not abstracting: on any universe, converting a
//! `StateSet` in, running a basic command, and converting back yields
//! the bitset kernel's result — including which [`SemError`] is raised.
//! The kernel-equivalence proptest and differential fuzz axis 9 check
//! this property.
//!
//! # How exactness is maintained
//!
//! Transfer functions classify regions of a state set by evaluating the
//! expression over the region's bounding box with tri-valued interval
//! arithmetic that tracks *dirtiness* (possible `i64` overflow or unknown
//! variables) and replicates Rust's `&&`/`||` short-circuit so that an
//! error in a right operand is suppressed exactly when the concrete
//! evaluator would suppress it. Clean regions are transformed wholesale;
//! dirty or mixed regions are bisected on the most-significant variable the
//! expression reads, until every read variable is a singleton — at which
//! point the concrete evaluator decides ([`ResolvedAExp`] /
//! [`ResolvedBExp`], resolved once per basic command), so verdicts and
//! error kinds cannot drift. When a region errors, the reported error is
//! re-derived at the region's minimum store index: the same store at which
//! the bitset kernel's ascending iteration would have failed first. Set
//! equality is decided on canonical diagrams, so the recursion's star
//! rounds — and any error raised mid-iteration — coincide with the
//! bitset kernel's.
//!
//! Straight-line assignments of the form `x := x ± c` take a
//! segment-shift fast path, and `x := c` is a single piece of the general
//! split, which is what makes fixpoints on `10^6+`-store universes
//! tractable.

use std::collections::BTreeMap;
use std::sync::Arc;

use air_lattice::symbolic::{SymShape, SymState};

use crate::ast::{AExp, BExp, CmpOp, Exp};
use crate::resolve::{ResolvedAExp, ResolvedBExp};
use crate::semantics::{SemError, SetKernel, StoreSet};
use crate::store::{StateSet, Universe};

/// Tri-valued truth with a dirtiness marker: `D` means evaluation might
/// error somewhere in the box (overflow or unknown variable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TB {
    T,
    F,
    M,
    D,
}

/// Interval result of arithmetic evaluation over a box, or `Dirty` when
/// evaluation may error for some store in the box.
#[derive(Clone, Copy, Debug)]
enum AEval {
    Iv(i128, i128),
    Dirty,
}

impl StoreSet for SymState {
    fn intersection(&self, other: &Self) -> Self {
        self.intersect(other)
    }

    fn union(&self, other: &Self) -> Self {
        SymState::union(self, other)
    }

    fn difference(&self, other: &Self) -> Self {
        SymState::difference(self, other)
    }

    fn complement(&self) -> Self {
        SymState::complement(self)
    }

    fn is_subset(&self, other: &Self) -> bool {
        SymState::is_subset(self, other)
    }

    fn size(&self) -> usize {
        usize::try_from(self.count()).unwrap_or(usize::MAX)
    }
}

/// The diagram kernel over a universe.
#[derive(Clone, Debug)]
pub struct SymEngine<'u> {
    universe: &'u Universe,
    shape: SymShape,
}

impl<'u> SymEngine<'u> {
    /// Creates the diagram kernel for a universe.
    pub fn new(universe: &'u Universe) -> Self {
        let ranges: Vec<(i64, i64)> = (0..universe.num_vars())
            .map(|i| universe.var_range(i))
            .collect();
        SymEngine {
            universe,
            shape: SymShape::new(&ranges),
        }
    }

    fn empty(&self) -> SymState {
        SymState::empty(&self.shape)
    }

    fn full(&self) -> SymState {
        SymState::full(&self.shape)
    }

    // ------------------------------------------------------------------
    // Tri-valued interval evaluation over bounding boxes
    // ------------------------------------------------------------------
    fn aeval(&self, a: &AExp, bx: &[(i64, i64)]) -> AEval {
        match a {
            AExp::Num(n) => AEval::Iv(*n as i128, *n as i128),
            AExp::Var(x) => match self.universe.var_index(x) {
                Some(i) => AEval::Iv(bx[i].0 as i128, bx[i].1 as i128),
                None => AEval::Dirty,
            },
            AExp::Add(l, r) => self.abin(l, r, bx, |a, b, c, d| (a + c, b + d)),
            AExp::Sub(l, r) => self.abin(l, r, bx, |a, b, c, d| (a - d, b - c)),
            AExp::Mul(l, r) => self.abin(l, r, bx, |a, b, c, d| {
                let ps = [a * c, a * d, b * c, b * d];
                (
                    ps.iter().copied().min().unwrap_or(0),
                    ps.iter().copied().max().unwrap_or(0),
                )
            }),
        }
    }

    fn abin(
        &self,
        l: &AExp,
        r: &AExp,
        bx: &[(i64, i64)],
        f: impl Fn(i128, i128, i128, i128) -> (i128, i128),
    ) -> AEval {
        let AEval::Iv(a, b) = self.aeval(l, bx) else {
            return AEval::Dirty;
        };
        let AEval::Iv(c, d) = self.aeval(r, bx) else {
            return AEval::Dirty;
        };
        let (lo, hi) = f(a, b, c, d);
        // A node whose value may leave i64 is a potential checked-arithmetic
        // overflow: the whole expression is dirty for this box.
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            AEval::Dirty
        } else {
            AEval::Iv(lo, hi)
        }
    }

    fn beval(&self, b: &BExp, bx: &[(i64, i64)]) -> TB {
        match b {
            BExp::Tt => TB::T,
            BExp::Ff => TB::F,
            BExp::Cmp(op, l, r) => {
                let AEval::Iv(a, bb) = self.aeval(l, bx) else {
                    return TB::D;
                };
                let AEval::Iv(c, d) = self.aeval(r, bx) else {
                    return TB::D;
                };
                cmp_tri(*op, (a, bb), (c, d))
            }
            BExp::And(l, r) => short_circuit(self.beval(l, bx), TB::F, || self.beval(r, bx)),
            BExp::Or(l, r) => short_circuit(self.beval(l, bx), TB::T, || self.beval(r, bx)),
            BExp::Not(inner) => match self.beval(inner, bx) {
                TB::T => TB::F,
                TB::F => TB::T,
                other => other,
            },
        }
    }

    /// The levels of the declared variables `collect` names, ascending:
    /// the levels bisection splits on.
    fn levels(&self, collect: impl FnOnce(&mut Vec<Arc<str>>)) -> Vec<usize> {
        let mut vars = Vec::new();
        collect(&mut vars);
        let mut levels: Vec<usize> = vars
            .iter()
            .filter_map(|x| self.universe.var_index(x))
            .collect();
        levels.sort_unstable();
        levels
    }

    // ------------------------------------------------------------------
    // Region partitioning
    // ------------------------------------------------------------------

    /// Splits `region` into the stores where `b` holds and where it
    /// fails, or raises the error of the least erroring store.
    fn partition_bexp(
        &self,
        b: &BExp,
        region: &SymState,
    ) -> Result<(SymState, SymState), SemError> {
        let levels = self.levels(|v| b.collect_vars(v));
        let rb = ResolvedBExp::new(self.universe, b);
        let mut parts = [self.empty(), self.empty(), self.empty()];
        self.part_b(b, &rb, region.clone(), &levels, &mut parts);
        let [tt, ff, err] = parts;
        if !err.is_empty() {
            return Err(self.first_error(&err, |s| rb.eval(s).err()));
        }
        Ok((tt, ff))
    }

    /// Adds `sub` to `parts[0]` where `b` holds, `parts[1]` where it
    /// fails and `parts[2]` where it errors.
    fn part_b(
        &self,
        b: &BExp,
        rb: &ResolvedBExp,
        sub: SymState,
        levels: &[usize],
        parts: &mut [SymState; 3],
    ) {
        let Some(bx) = sub.hull() else {
            return;
        };
        let k = match self.beval(b, &bx) {
            TB::T => 0,
            TB::F => 1,
            _ => match split_level(levels, &bx) {
                Some((l, lo, mid, hi)) => {
                    self.part_b(b, rb, sub.restrict(l, lo, mid), levels, parts);
                    self.part_b(b, rb, sub.restrict(l, mid + 1, hi), levels, parts);
                    return;
                }
                // Every variable the expression reads is a singleton:
                // the concrete evaluator decides for the whole region.
                None => match rb.eval(&box_store(&bx)) {
                    Ok(true) => 0,
                    Ok(false) => 1,
                    Err(_) => 2,
                },
            },
        };
        parts[k] = parts[k].union(&sub);
    }

    /// Splits `region` by the value of `a`: constant-value pieces plus the
    /// stores where evaluation errors.
    fn partition_aexp(
        &self,
        a: &AExp,
        ra: &ResolvedAExp,
        region: &SymState,
    ) -> (BTreeMap<i64, SymState>, SymState) {
        let levels = self.levels(|v| a.collect_vars(v));
        let mut pieces = BTreeMap::new();
        let mut err = self.empty();
        self.part_a(a, ra, region.clone(), &levels, &mut pieces, &mut err);
        (pieces, err)
    }

    fn part_a(
        &self,
        a: &AExp,
        ra: &ResolvedAExp,
        sub: SymState,
        levels: &[usize],
        pieces: &mut BTreeMap<i64, SymState>,
        err: &mut SymState,
    ) {
        let Some(bx) = sub.hull() else {
            return;
        };
        if let AEval::Iv(lo, hi) = self.aeval(a, &bx) {
            if lo == hi {
                merge_piece(pieces, lo as i64, sub);
                return;
            }
        }
        match split_level(levels, &bx) {
            Some((l, lo, mid, hi)) => {
                self.part_a(a, ra, sub.restrict(l, lo, mid), levels, pieces, err);
                self.part_a(a, ra, sub.restrict(l, mid + 1, hi), levels, pieces, err);
            }
            None => match ra.eval(&box_store(&bx)) {
                Ok(v) => merge_piece(pieces, v, sub),
                Err(_) => *err = err.union(&sub),
            },
        }
    }

    /// Re-derives the exact error at the minimum erroring store — the store
    /// at which the bitset kernel's ascending scan would fail first.
    fn first_error(&self, errs: &SymState, eval: impl Fn(&[i64]) -> Option<SemError>) -> SemError {
        let mut found = None;
        errs.for_each_index(|i| {
            if found.is_none() {
                found = eval(&self.universe.store_at(i as usize));
            }
        });
        debug_assert!(found.is_some(), "error region contained no erroring store");
        found.unwrap_or(SemError::Divergence)
    }

    fn exec_assign(
        &self,
        strict: bool,
        x: &Arc<str>,
        xi: usize,
        a: &AExp,
        s: &SymState,
    ) -> Result<SymState, SemError> {
        let (rlo, rhi) = self.universe.var_range(xi);
        // Fast path: `x := x ± c` is a segment shift (no per-value split).
        if let Some(c) = shift_of(a, x) {
            if self.shift_is_overflow_free(xi, c) {
                if strict {
                    let esc = self.escape_region(s, xi, c);
                    if !esc.is_empty() {
                        return Err(self.escape_error(x, xi, c, &esc));
                    }
                }
                return Ok(s.shift(xi, c));
            }
        }
        // General path: split into constant-value pieces (a constant `a`
        // is one piece).
        let ra = ResolvedAExp::new(self.universe, a);
        let (pieces, errs) = self.partition_aexp(a, &ra, s);
        if strict {
            let mut bad = errs;
            for (&v, piece) in &pieces {
                if v < rlo || v > rhi {
                    bad = bad.union(piece);
                }
            }
            if !bad.is_empty() {
                let idx = bad.min_index().unwrap_or(0) as usize;
                let store = self.universe.store_at(idx);
                return Err(match ra.eval(&store) {
                    Err(e) => e,
                    Ok(v) => SemError::UniverseEscape {
                        var: x.clone(),
                        value: v,
                        store,
                    },
                });
            }
        } else if !errs.is_empty() {
            return Err(self.first_error(&errs, |s| ra.eval(s).err()));
        }
        let mut out = self.empty();
        for (&v, piece) in &pieces {
            if v >= rlo && v <= rhi {
                out = out.union(&piece.assign_value(xi, v));
            }
        }
        Ok(out)
    }

    /// True when `v + c` cannot overflow `i64` for any `v` in the level's
    /// range — the precondition for the shift fast path.
    fn shift_is_overflow_free(&self, xi: usize, c: i64) -> bool {
        let (rlo, rhi) = self.universe.var_range(xi);
        let lo = rlo as i128 + c as i128;
        let hi = rhi as i128 + c as i128;
        lo >= i64::MIN as i128 && hi <= i64::MAX as i128
    }

    /// The stores of `s` whose value at `xi` escapes the range when
    /// shifted by `c`.
    fn escape_region(&self, s: &SymState, xi: usize, c: i64) -> SymState {
        let (rlo, rhi) = self.universe.var_range(xi);
        // Compared in i128: near the ends of i64 the bounds leave it.
        let keep_lo = (rlo as i128 - c as i128).max(rlo as i128);
        let keep_hi = (rhi as i128 - c as i128).min(rhi as i128);
        if keep_lo > keep_hi {
            return s.clone();
        }
        // Both bounds now lie in [rlo, rhi].
        s.difference(&s.restrict(xi, keep_lo as i64, keep_hi as i64))
    }

    fn escape_error(&self, x: &Arc<str>, xi: usize, c: i64, esc: &SymState) -> SemError {
        let idx = esc.min_index().unwrap_or(0) as usize;
        let store = self.universe.store_at(idx);
        SemError::UniverseEscape {
            var: x.clone(),
            value: store[xi].saturating_add(c),
            store,
        }
    }

    fn wlp_assign(
        &self,
        x: &Arc<str>,
        xi: usize,
        a: &AExp,
        post: &SymState,
    ) -> Result<SymState, SemError> {
        let (rlo, rhi) = self.universe.var_range(xi);
        if let Some(c) = shift_of(a, x) {
            if self.shift_is_overflow_free(xi, c) {
                let full = self.full();
                let esc = self.escape_region(&full, xi, c);
                return Ok(esc.union(&post.shift(xi, -c)));
            }
        }
        // General path: the bitset wlp scans the whole universe, so
        // evaluation errors anywhere in the universe surface here.
        let ra = ResolvedAExp::new(self.universe, a);
        let (pieces, errs) = self.partition_aexp(a, &ra, &self.full());
        if !errs.is_empty() {
            return Err(self.first_error(&errs, |s| ra.eval(s).err()));
        }
        let mut out = self.empty();
        for (&v, piece) in &pieces {
            if v >= rlo && v <= rhi {
                out = out.union(&piece.intersect(&post.fiber(xi, v)));
            } else {
                out = out.union(piece);
            }
        }
        Ok(out)
    }
}

impl SetKernel for SymEngine<'_> {
    type Set = SymState;

    fn universe(&self) -> &Universe {
        self.universe
    }

    fn image(&self, strict: bool, e: &Exp, s: &SymState) -> Result<SymState, SemError> {
        match e {
            Exp::Skip => Ok(s.clone()),
            Exp::Assume(b) => Ok(self.partition_bexp(b, s)?.0),
            Exp::Havoc(x) => Ok(s.cylindrify(self.universe.var_slot(x)?)),
            Exp::Assign(x, a) => self.exec_assign(strict, x, self.universe.var_slot(x)?, a, s),
        }
    }

    fn wlp_exp(&self, e: &Exp, post: &SymState) -> Result<SymState, SemError> {
        match e {
            Exp::Skip => Ok(post.clone()),
            // wlp(b?, z) = ¬b ∪ z, with b evaluated over the full universe.
            Exp::Assume(b) => Ok(self.partition_bexp(b, &self.full())?.1.union(post)),
            // wlp(x := ?, z) = {σ | ∀v ∈ range(x). σ[x ↦ v] ∈ z}
            Exp::Havoc(x) => Ok(post.meet_over_level(self.universe.var_slot(x)?)),
            // wlp(x := a, z) = {σ | σ[x ↦ ⟦a⟧σ] ∈ z}, escapes vacuously in.
            Exp::Assign(x, a) => self.wlp_assign(x, self.universe.var_slot(x)?, a, post),
        }
    }

    fn sat(&self, b: &BExp) -> Result<SymState, SemError> {
        Ok(self.partition_bexp(b, &self.full())?.0)
    }

    fn lift(&self, s: &StateSet) -> SymState {
        SymState::from_bitset(&self.shape, s)
    }

    fn lower(&self, s: SymState) -> StateSet {
        s.to_bitset()
    }
}

/// The store at a box's lower corner (the box's only store on the levels
/// an expression reads, once bisection made them singletons).
fn box_store(bx: &[(i64, i64)]) -> Vec<i64> {
    bx.iter().map(|r| r.0).collect()
}

/// Rust's `&&` (`decides` = `F`) or `||` (`T`) over tri-values: a left
/// side that decides settles the result, so the right side is never
/// evaluated and its potential errors are suppressed.
fn short_circuit(l: TB, decides: TB, r: impl FnOnce() -> TB) -> TB {
    if l == TB::D || l == decides {
        return l;
    }
    match r() {
        r if l == TB::M && r != TB::D && r != decides => TB::M,
        r => r,
    }
}

/// Decides a comparison over interval operands, tri-valued.
fn cmp_tri(op: CmpOp, (llo, lhi): (i128, i128), (rlo, rhi): (i128, i128)) -> TB {
    let same = llo == lhi && rlo == rhi && llo == rlo;
    let apart = lhi < rlo || rhi < llo;
    // Whether the comparison holds for every pair, and for none.
    let (always, never) = match op {
        CmpOp::Lt => (lhi < rlo, llo >= rhi),
        CmpOp::Le => (lhi <= rlo, llo > rhi),
        CmpOp::Gt => (llo > rhi, lhi <= rlo),
        CmpOp::Ge => (llo >= rhi, lhi < rlo),
        CmpOp::Eq => (same, apart),
        CmpOp::Ne => (apart, same),
    };
    if always {
        TB::T
    } else if never {
        TB::F
    } else {
        TB::M
    }
}

/// Recognizes `x := x + c`, `x := c + x`, `x := x - c`, and `x := x`
/// (shift by 0), returning the shift amount.
fn shift_of(a: &AExp, x: &str) -> Option<i64> {
    match a {
        AExp::Var(v) if &**v == x => Some(0),
        AExp::Add(l, r) => match (&**l, &**r) {
            (AExp::Var(v), AExp::Num(n)) if &**v == x => Some(*n),
            (AExp::Num(n), AExp::Var(v)) if &**v == x => Some(*n),
            _ => None,
        },
        AExp::Sub(l, r) => match (&**l, &**r) {
            (AExp::Var(v), AExp::Num(n)) if &**v == x => n.checked_neg(),
            _ => None,
        },
        _ => None,
    }
}

/// Picks the most-significant read level whose box component is not a
/// singleton, returning `(level, lo, mid, hi)` for bisection.
fn split_level(levels: &[usize], bx: &[(i64, i64)]) -> Option<(usize, i64, i64, i64)> {
    for &l in levels {
        let (lo, hi) = bx[l];
        if lo < hi {
            let mid = lo + (hi - lo) / 2;
            return Some((l, lo, mid, hi));
        }
    }
    None
}

fn merge_piece(pieces: &mut BTreeMap<i64, SymState>, v: i64, sub: SymState) {
    let merged = match pieces.remove(&v) {
        Some(piece) => piece.union(&sub),
        None => sub,
    };
    pieces.insert(v, merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_bexp, parse_program};
    use crate::semantics::Concrete;
    use crate::semantics::Wlp;

    fn universe() -> Universe {
        Universe::new(&[("x", -8, 8), ("y", -8, 8)]).unwrap()
    }

    /// A deterministic xorshift for derived test sets.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            self.0 = x;
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            x
        }
    }

    fn random_set(u: &Universe, seed: u64) -> StateSet {
        let mut rng = XorShift(seed);
        let mut out = u.empty();
        for i in 0..u.size() {
            if rng.next().is_multiple_of(3) {
                out.insert(i);
            }
        }
        out
    }

    #[test]
    fn exec_matches_enumerative_on_programs() {
        let u = universe();
        let sem = Concrete::new(&u);
        let eng = SymEngine::new(&u);
        let programs = [
            "x := x + 1",
            "x := 0 - x",
            "x := x * y",
            "if (x >= 0) then { skip } else { x := 0 - x }",
            "while (x < 5) do { x := x + 1 }",
            "star { assume x < 8; x := x + y }",
            "either { x := 1 } or { y := x }",
            "x := ?; assume x > y",
        ];
        for prog_src in programs {
            let prog = parse_program(prog_src).unwrap();
            for seed in 0..5u64 {
                let s = random_set(&u, seed * 31 + 7);
                let expected = sem.exec(&prog, &s);
                let got = eng.exec(false, &prog, &eng.lift(&s)).map(|r| eng.lower(r));
                assert_eq!(got, expected, "exec mismatch on `{prog_src}` seed {seed}");
            }
        }
    }

    #[test]
    fn wlp_matches_enumerative_on_programs() {
        let u = universe();
        let w = Wlp::new(&u);
        let eng = SymEngine::new(&u);
        let programs = [
            "x := x + 1",
            "x := x * y",
            "x := ?",
            "while (x < 5) do { x := x + 1 }",
            "either { x := 1 } or { y := x }",
            "assume x * x > y",
        ];
        for prog_src in programs {
            let prog = parse_program(prog_src).unwrap();
            for seed in 0..5u64 {
                let post = random_set(&u, seed * 17 + 3);
                let expected = w.reg(&prog, &post);
                let got = eng.wlp(&prog, &eng.lift(&post)).map(|r| eng.lower(r));
                assert_eq!(got, expected, "wlp mismatch on `{prog_src}` seed {seed}");
            }
        }
    }

    #[test]
    fn sat_matches_enumerative() {
        let u = universe();
        let sem = Concrete::new(&u);
        let eng = SymEngine::new(&u);
        for src in [
            "x > 0",
            "x * y + 1 < 0 && !(y = 0)",
            "x = y || x > 3",
            "true",
            "false",
            "x * x * x * x * x > 0 || true",
        ] {
            let b = parse_bexp(src).unwrap();
            let expected = sem.sat(&b);
            let got = eng.sat(&b).map(|r| eng.lower(r));
            assert_eq!(got, expected, "sat mismatch on `{src}`");
        }
    }

    #[test]
    fn short_circuit_error_suppression_matches() {
        // `z` is unknown: `ff && z = 0` never evaluates the right side,
        // while `z = 0 && ff` always errors.
        let u = universe();
        let sem = Concrete::new(&u);
        let eng = SymEngine::new(&u);
        for src in [
            "false && z = 0",
            "z = 0 && false",
            "true || z = 0",
            "x > 99 && z = 0",
        ] {
            let b = parse_bexp(src).unwrap();
            assert_eq!(
                eng.sat(&b).map(|r| eng.lower(r)),
                sem.sat(&b),
                "short-circuit mismatch on `{src}`"
            );
        }
    }

    #[test]
    fn overflow_error_matches() {
        let u = Universe::new(&[("x", i64::MAX - 4, i64::MAX - 1)]).unwrap();
        let sem = Concrete::new(&u);
        let eng = SymEngine::new(&u);
        let prog = parse_program("x := x + 3").unwrap();
        let s = u.full();
        let expected = sem.exec(&prog, &s);
        let got = eng.exec(false, &prog, &eng.lift(&s)).map(|r| eng.lower(r));
        assert_eq!(got, expected);
        // Both must agree the error is Overflow at the same first store.
        assert!(matches!(got, Err(SemError::Overflow)));
    }

    #[test]
    fn strict_escape_matches() {
        let u = universe();
        let strict = Concrete::strict(&u);
        let eng = SymEngine::new(&u);
        let prog = Exp::assign("x", AExp::var("x").add(1.into()));
        let s = u.filter(|st| st[0] >= 7);
        let expected = strict.exec_exp(&prog, &s);
        let got = eng.image(true, &prog, &eng.lift(&s)).map(|r| eng.lower(r));
        assert_eq!(got, expected);
        assert!(matches!(
            got,
            Err(SemError::UniverseEscape { value: 9, .. })
        ));
        // General-path strict escape: x := x * 3.
        let prog2 = Exp::assign("x", AExp::var("x").mul(3.into()));
        let expected2 = strict.exec_exp(&prog2, &u.full());
        let got2 = eng
            .image(true, &prog2, &eng.lift(&u.full()))
            .map(|r| eng.lower(r));
        assert_eq!(got2, expected2);
    }

    #[test]
    fn large_universe_box_ops_are_cheap() {
        // 4 * 10^6 stores: far beyond enumerative reach per-op, but the
        // symbolic engine runs a loop fixpoint in segment space.
        let u = Universe::new(&[("x", 0, 1999), ("y", 0, 1999)]).unwrap();
        let eng = SymEngine::new(&u);
        let prog = parse_program("while (x < 100) do { x := x + 1 }").unwrap();
        let init = eng.sat(&parse_bexp("x = 0").unwrap()).unwrap();
        let out = eng.exec(false, &prog, &init).unwrap();
        assert_eq!(out.count(), 2000);
        let expected = eng.sat(&parse_bexp("x = 100").unwrap()).unwrap();
        assert_eq!(out, expected);
    }
}
