//! Symbolic collecting semantics and wlp over [`SymState`] sets.
//!
//! [`SymEngine`] implements the same `exec`/`wlp`/`sat` surface as the
//! enumerative [`Concrete`]/[`Wlp`](crate::Wlp) pair, but on symbolic
//! interval-decision-diagram state sets instead of explicit bitsets, so the
//! cost of a transfer function scales with the *description* of a set
//! rather than the universe's cardinality. It is **exact**, not
//! abstracting: on any universe, converting a `StateSet` in, running the
//! symbolic engine, and converting back yields byte-identical results —
//! including which [`SemError`] is raised — to the enumerative engine.
//! This is the property the differential fuzz axis 9 and the
//! `symbolic_differential` proptest suite check.
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
//! point the *actual* concrete evaluator decides ([`Concrete::eval_aexp`] /
//! [`Concrete::eval_bexp`]), so verdicts and error kinds cannot drift. When
//! a region errors, the reported error is re-derived at the region's
//! minimum store index: the same store at which the enumerative engine's
//! ascending iteration would have failed first.
//!
//! Kleene stars mirror the enumerative loops literally (`lfp`/`gfp` with
//! the same `|Σ| + 1` round bound and [`SemError::Divergence`] overflow),
//! with set equality decided on canonical diagrams, so round counts — and
//! therefore any error raised mid-iteration — coincide.
//!
//! Straight-line assignments of the form `x := x ± c` / `x := c` take a
//! segment-shift fast path, which is what makes fixpoints on `10^6+`-store
//! universes tractable (ROADMAP item 1).

use std::collections::BTreeMap;

use air_lattice::symbolic::{SymShape, SymState};

use crate::ast::{AExp, BExp, CmpOp, Exp, Reg};
use crate::semantics::{Concrete, SemError};
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

/// The symbolic engine for a universe: exec/wlp/sat on [`SymState`].
#[derive(Clone, Debug)]
pub struct SymEngine<'u> {
    universe: &'u Universe,
    shape: SymShape,
}

impl<'u> SymEngine<'u> {
    /// Creates the symbolic engine for a universe.
    pub fn new(universe: &'u Universe) -> Self {
        let ranges: Vec<(i64, i64)> = (0..universe.num_vars())
            .map(|i| universe.var_range(i))
            .collect();
        SymEngine {
            universe,
            shape: SymShape::new(&ranges),
        }
    }

    /// The underlying universe.
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// The mixed-radix shape shared by all state sets of this engine.
    pub fn shape(&self) -> &SymShape {
        &self.shape
    }

    /// The empty symbolic set.
    pub fn empty(&self) -> SymState {
        SymState::empty(&self.shape)
    }

    /// The full symbolic set (all universe stores).
    pub fn full(&self) -> SymState {
        SymState::full(&self.shape)
    }

    /// Imports an explicit state set.
    pub fn from_set(&self, s: &StateSet) -> SymState {
        SymState::from_bitset(&self.shape, s)
    }

    /// Exports a symbolic set as an explicit state set.
    pub fn to_set(&self, s: &SymState) -> StateSet {
        s.to_bitset()
    }

    fn sem(&self) -> Concrete<'u> {
        Concrete::new(self.universe)
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
            // Rust's `&&`: when the left side decides, the right side is
            // never evaluated — so its potential errors are suppressed.
            BExp::And(l, r) => match self.beval(l, bx) {
                TB::D => TB::D,
                TB::F => TB::F,
                TB::T => self.beval(r, bx),
                TB::M => match self.beval(r, bx) {
                    TB::D => TB::D,
                    TB::F => TB::F,
                    _ => TB::M,
                },
            },
            BExp::Or(l, r) => match self.beval(l, bx) {
                TB::D => TB::D,
                TB::T => TB::T,
                TB::F => self.beval(r, bx),
                TB::M => match self.beval(r, bx) {
                    TB::D => TB::D,
                    TB::T => TB::T,
                    _ => TB::M,
                },
            },
            BExp::Not(inner) => match self.beval(inner, bx) {
                TB::T => TB::F,
                TB::F => TB::T,
                other => other,
            },
        }
    }

    fn read_levels_a(&self, a: &AExp, out: &mut Vec<usize>) {
        match a {
            AExp::Num(_) => {}
            AExp::Var(x) => {
                if let Some(i) = self.universe.var_index(x) {
                    if !out.contains(&i) {
                        out.push(i);
                    }
                }
            }
            AExp::Add(l, r) | AExp::Sub(l, r) | AExp::Mul(l, r) => {
                self.read_levels_a(l, out);
                self.read_levels_a(r, out);
            }
        }
    }

    fn read_levels_b(&self, b: &BExp, out: &mut Vec<usize>) {
        match b {
            BExp::Tt | BExp::Ff => {}
            BExp::Cmp(_, l, r) => {
                self.read_levels_a(l, out);
                self.read_levels_a(r, out);
            }
            BExp::And(l, r) | BExp::Or(l, r) => {
                self.read_levels_b(l, out);
                self.read_levels_b(r, out);
            }
            BExp::Not(inner) => self.read_levels_b(inner, out),
        }
    }

    // ------------------------------------------------------------------
    // Region partitioning
    // ------------------------------------------------------------------

    /// Splits `region` into the stores where `b` holds, fails, and errors.
    fn partition_bexp(&self, b: &BExp, region: &SymState) -> (SymState, SymState, SymState) {
        let mut levels = Vec::new();
        self.read_levels_b(b, &mut levels);
        levels.sort_unstable();
        let mut tt = self.empty();
        let mut ff = self.empty();
        let mut err = self.empty();
        self.part_b(b, region.clone(), &levels, &mut tt, &mut ff, &mut err);
        (tt, ff, err)
    }

    fn part_b(
        &self,
        b: &BExp,
        sub: SymState,
        levels: &[usize],
        tt: &mut SymState,
        ff: &mut SymState,
        err: &mut SymState,
    ) {
        if sub.is_empty() {
            return;
        }
        let Some(bx) = sub.hull() else {
            return;
        };
        match self.beval(b, &bx) {
            TB::T => *tt = tt.union(&sub),
            TB::F => *ff = ff.union(&sub),
            _ => match split_level(levels, &bx) {
                Some((l, lo, mid, hi)) => {
                    self.part_b(b, sub.restrict(l, lo, mid), levels, tt, ff, err);
                    self.part_b(b, sub.restrict(l, mid + 1, hi), levels, tt, ff, err);
                }
                None => {
                    // Every variable the expression reads is a singleton:
                    // the concrete evaluator decides for the whole region.
                    let store: Vec<i64> = bx.iter().map(|r| r.0).collect();
                    match self.sem().eval_bexp(b, &store) {
                        Ok(true) => *tt = tt.union(&sub),
                        Ok(false) => *ff = ff.union(&sub),
                        Err(_) => *err = err.union(&sub),
                    }
                }
            },
        }
    }

    /// Splits `region` by the value of `a`: constant-value pieces plus the
    /// stores where evaluation errors.
    fn partition_aexp(&self, a: &AExp, region: &SymState) -> (BTreeMap<i64, SymState>, SymState) {
        let mut levels = Vec::new();
        self.read_levels_a(a, &mut levels);
        levels.sort_unstable();
        let mut pieces = BTreeMap::new();
        let mut err = self.empty();
        self.part_a(a, region.clone(), &levels, &mut pieces, &mut err);
        (pieces, err)
    }

    fn part_a(
        &self,
        a: &AExp,
        sub: SymState,
        levels: &[usize],
        pieces: &mut BTreeMap<i64, SymState>,
        err: &mut SymState,
    ) {
        if sub.is_empty() {
            return;
        }
        let Some(bx) = sub.hull() else {
            return;
        };
        let verdict = self.aeval(a, &bx);
        if let AEval::Iv(lo, hi) = verdict {
            if lo == hi {
                merge_piece(pieces, lo as i64, sub);
                return;
            }
        }
        match split_level(levels, &bx) {
            Some((l, lo, mid, hi)) => {
                self.part_a(a, sub.restrict(l, lo, mid), levels, pieces, err);
                self.part_a(a, sub.restrict(l, mid + 1, hi), levels, pieces, err);
            }
            None => {
                let store: Vec<i64> = bx.iter().map(|r| r.0).collect();
                match self.sem().eval_aexp(a, &store) {
                    Ok(v) => merge_piece(pieces, v, sub),
                    Err(_) => *err = err.union(&sub),
                }
            }
        }
    }

    /// Re-derives the exact error at the minimum erroring store — the store
    /// at which the enumerative engine's ascending scan would fail first.
    fn eval_error_b(&self, b: &BExp, errs: &SymState) -> SemError {
        let mut found = None;
        errs.for_each_index(|i| {
            if found.is_none() {
                let store = self.universe.store_at(i as usize);
                if let Err(e) = self.sem().eval_bexp(b, &store) {
                    found = Some(e);
                }
            }
        });
        debug_assert!(found.is_some(), "error region contained no erroring store");
        found.unwrap_or(SemError::Divergence)
    }

    fn eval_error_a(&self, a: &AExp, errs: &SymState) -> SemError {
        let mut found = None;
        errs.for_each_index(|i| {
            if found.is_none() {
                let store = self.universe.store_at(i as usize);
                if let Err(e) = self.sem().eval_aexp(a, &store) {
                    found = Some(e);
                }
            }
        });
        debug_assert!(found.is_some(), "error region contained no erroring store");
        found.unwrap_or(SemError::Divergence)
    }

    // ------------------------------------------------------------------
    // Public exec/wlp/sat surface
    // ------------------------------------------------------------------

    /// The set of all universe stores satisfying `b`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors, matching [`Concrete::sat`].
    pub fn sat(&self, b: &BExp) -> Result<SymState, SemError> {
        let (tt, _, err) = self.partition_bexp(b, &self.full());
        if !err.is_empty() {
            return Err(self.eval_error_b(b, &err));
        }
        Ok(tt)
    }

    /// Executes a basic command symbolically; `strict` matches
    /// [`Concrete::strict`] (escaping assignments error instead of being
    /// dropped).
    ///
    /// # Errors
    ///
    /// Identical to the enumerative [`Concrete::exec_exp`].
    pub fn exec_exp(&self, strict: bool, e: &Exp, s: &SymState) -> Result<SymState, SemError> {
        match e {
            Exp::Skip => Ok(s.clone()),
            Exp::Assume(b) => {
                let (tt, _, err) = self.partition_bexp(b, s);
                if !err.is_empty() {
                    return Err(self.eval_error_b(b, &err));
                }
                Ok(tt)
            }
            Exp::Havoc(x) => {
                let xi = self
                    .universe
                    .var_index(x)
                    .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
                Ok(s.cylindrify(xi))
            }
            Exp::Assign(x, a) => {
                let xi = self
                    .universe
                    .var_index(x)
                    .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
                self.exec_assign(strict, x, xi, a, s)
            }
        }
    }

    fn exec_assign(
        &self,
        strict: bool,
        x: &std::sync::Arc<str>,
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
        // Fast path: constant assignment.
        if let AExp::Num(n) = a {
            if *n >= rlo && *n <= rhi {
                return Ok(s.assign_value(xi, *n));
            }
            if strict && !s.is_empty() {
                let idx = s.min_index().unwrap_or(0) as usize;
                return Err(SemError::UniverseEscape {
                    var: x.clone(),
                    value: *n,
                    store: self.universe.store_at(idx),
                });
            }
            return Ok(self.empty());
        }
        // General path: split into constant-value pieces.
        let (pieces, errs) = self.partition_aexp(a, s);
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
                return Err(match self.sem().eval_aexp(a, &store) {
                    Err(e) => e,
                    Ok(v) => SemError::UniverseEscape {
                        var: x.clone(),
                        value: v,
                        store,
                    },
                });
            }
        } else if !errs.is_empty() {
            return Err(self.eval_error_a(a, &errs));
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
        let keep_lo = (rlo as i128 - c as i128).max(rlo as i128) as i64;
        let keep_hi = (rhi as i128 - c as i128).min(rhi as i128) as i64;
        if keep_lo > keep_hi {
            return s.clone();
        }
        s.difference(&s.restrict(xi, keep_lo, keep_hi))
    }

    fn escape_error(&self, x: &std::sync::Arc<str>, xi: usize, c: i64, esc: &SymState) -> SemError {
        let idx = esc.min_index().unwrap_or(0) as usize;
        let store = self.universe.store_at(idx);
        SemError::UniverseEscape {
            var: x.clone(),
            value: store[xi].saturating_add(c),
            store,
        }
    }

    /// Executes a regular command symbolically — the collecting semantics
    /// `⟦r⟧S` with the same Kleene-round structure as the enumerative
    /// engine.
    ///
    /// # Errors
    ///
    /// Identical to the enumerative [`Concrete::exec`].
    pub fn exec(&self, strict: bool, r: &Reg, s: &SymState) -> Result<SymState, SemError> {
        match r {
            Reg::Basic(e) => self.exec_exp(strict, e, s),
            Reg::Seq(r1, r2) => {
                let mid = self.exec(strict, r1, s)?;
                self.exec(strict, r2, &mid)
            }
            Reg::Choice(r1, r2) => Ok(self.exec(strict, r1, s)?.union(&self.exec(strict, r2, s)?)),
            Reg::Star(body) => {
                let mut acc = s.clone();
                for _ in 0..=self.universe.size() {
                    let next = acc.union(&self.exec(strict, body, &acc)?);
                    if next == acc {
                        return Ok(acc);
                    }
                    acc = next;
                }
                Err(SemError::Divergence)
            }
        }
    }

    /// wlp of a basic command.
    ///
    /// # Errors
    ///
    /// Identical to the enumerative [`Wlp::exp`](crate::Wlp::exp).
    pub fn wlp_exp(&self, e: &Exp, post: &SymState) -> Result<SymState, SemError> {
        match e {
            Exp::Skip => Ok(post.clone()),
            // wlp(b?, z) = ¬b ∪ z, with b evaluated over the full universe.
            Exp::Assume(b) => {
                let (_, ff, err) = self.partition_bexp(b, &self.full());
                if !err.is_empty() {
                    return Err(self.eval_error_b(b, &err));
                }
                Ok(ff.union(post))
            }
            // wlp(x := ?, z) = {σ | ∀v ∈ range(x). σ[x ↦ v] ∈ z}
            Exp::Havoc(x) => {
                let xi = self
                    .universe
                    .var_index(x)
                    .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
                Ok(post.meet_over_level(xi))
            }
            // wlp(x := a, z) = {σ | σ[x ↦ ⟦a⟧σ] ∈ z}, escapes vacuously in.
            Exp::Assign(x, a) => {
                let xi = self
                    .universe
                    .var_index(x)
                    .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
                self.wlp_assign(x, xi, a, post)
            }
        }
    }

    fn wlp_assign(
        &self,
        _x: &std::sync::Arc<str>,
        xi: usize,
        a: &AExp,
        post: &SymState,
    ) -> Result<SymState, SemError> {
        let (rlo, rhi) = self.universe.var_range(xi);
        if let Some(c) = shift_of(a, _x) {
            if self.shift_is_overflow_free(xi, c) {
                let full = self.full();
                let esc = self.escape_region(&full, xi, c);
                return Ok(esc.union(&post.shift(xi, -c)));
            }
        }
        if let AExp::Num(n) = a {
            if *n >= rlo && *n <= rhi {
                return Ok(post.fiber(xi, *n));
            }
            // Every store escapes, hence is vacuously in.
            return Ok(self.full());
        }
        // General path: the enumerative wlp scans the whole universe, so
        // evaluation errors anywhere in the universe surface here.
        let (pieces, errs) = self.partition_aexp(a, &self.full());
        if !errs.is_empty() {
            return Err(self.eval_error_a(a, &errs));
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

    /// wlp of a regular command, with the same gfp round structure as the
    /// enumerative engine.
    ///
    /// # Errors
    ///
    /// Identical to the enumerative [`Wlp::reg`](crate::Wlp::reg).
    pub fn wlp_reg(&self, r: &Reg, post: &SymState) -> Result<SymState, SemError> {
        match r {
            Reg::Basic(e) => self.wlp_exp(e, post),
            Reg::Seq(r1, r2) => {
                let mid = self.wlp_reg(r2, post)?;
                self.wlp_reg(r1, &mid)
            }
            Reg::Choice(r1, r2) => Ok(self.wlp_reg(r1, post)?.intersect(&self.wlp_reg(r2, post)?)),
            Reg::Star(body) => {
                let mut acc = post.clone();
                for _ in 0..=self.universe.size() {
                    let next = post.intersect(&self.wlp_reg(body, &acc)?);
                    if next == acc {
                        return Ok(acc);
                    }
                    acc = next;
                }
                Err(SemError::Divergence)
            }
        }
    }

    /// The greatest valid input `V⟨P, r, Spec⟩ = P ∩ wlp(⟦r⟧, Spec)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn valid_input(
        &self,
        pre: &SymState,
        r: &Reg,
        spec: &SymState,
    ) -> Result<SymState, SemError> {
        Ok(pre.intersect(&self.wlp_reg(r, spec)?))
    }
}

/// Decides a comparison over interval operands, tri-valued.
fn cmp_tri(op: CmpOp, (llo, lhi): (i128, i128), (rlo, rhi): (i128, i128)) -> TB {
    match op {
        CmpOp::Lt => {
            if lhi < rlo {
                TB::T
            } else if llo >= rhi {
                TB::F
            } else {
                TB::M
            }
        }
        CmpOp::Le => {
            if lhi <= rlo {
                TB::T
            } else if llo > rhi {
                TB::F
            } else {
                TB::M
            }
        }
        CmpOp::Gt => {
            if llo > rhi {
                TB::T
            } else if lhi <= rlo {
                TB::F
            } else {
                TB::M
            }
        }
        CmpOp::Ge => {
            if llo >= rhi {
                TB::T
            } else if lhi < rlo {
                TB::F
            } else {
                TB::M
            }
        }
        CmpOp::Eq => {
            if llo == lhi && rlo == rhi && llo == rlo {
                TB::T
            } else if lhi < rlo || rhi < llo {
                TB::F
            } else {
                TB::M
            }
        }
        CmpOp::Ne => {
            if lhi < rlo || rhi < llo {
                TB::T
            } else if llo == lhi && rlo == rhi && llo == rlo {
                TB::F
            } else {
                TB::M
            }
        }
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
    match pieces.entry(v) {
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(sub);
        }
        std::collections::btree_map::Entry::Occupied(mut e) => {
            let merged = e.get().union(&sub);
            *e.get_mut() = merged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_bexp, parse_program};
    use crate::wlp::Wlp;

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
                let got = eng
                    .exec(false, &prog, &eng.from_set(&s))
                    .map(|r| eng.to_set(&r));
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
                let got = eng
                    .wlp_reg(&prog, &eng.from_set(&post))
                    .map(|r| eng.to_set(&r));
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
            let got = eng.sat(&b).map(|r| eng.to_set(&r));
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
                eng.sat(&b).map(|r| eng.to_set(&r)),
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
        let got = eng
            .exec(false, &prog, &eng.from_set(&s))
            .map(|r| eng.to_set(&r));
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
        let got = eng
            .exec_exp(true, &prog, &eng.from_set(&s))
            .map(|r| eng.to_set(&r));
        assert_eq!(got, expected);
        assert!(matches!(
            got,
            Err(SemError::UniverseEscape { value: 9, .. })
        ));
        // General-path strict escape: x := x * 3.
        let prog2 = Exp::assign("x", AExp::var("x").mul(3.into()));
        let expected2 = strict.exec_exp(&prog2, &u.full());
        let got2 = eng
            .exec_exp(true, &prog2, &eng.from_set(&u.full()))
            .map(|r| eng.to_set(&r));
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

    #[test]
    fn valid_input_matches() {
        let u = universe();
        let w = Wlp::new(&u);
        let eng = SymEngine::new(&u);
        let prog = parse_program("x := x + y").unwrap();
        let pre = u.filter(|s| s[0] <= 4);
        let spec = u.filter(|s| s[0] <= 6);
        let expected = w.valid_input(&pre, &prog, &spec).unwrap();
        let got = eng
            .valid_input(&eng.from_set(&pre), &prog, &eng.from_set(&spec))
            .unwrap();
        assert_eq!(eng.to_set(&got), expected);
    }
}
