//! The octagon domain `Oct` (Miné), built on difference-bound matrices.
//!
//! Octagons represent conjunctions of constraints `±x ± y ≤ c` between any
//! two variables. The paper uses `Oct` as the weakly relational refinement
//! of `Int` in Section 2 and Example 7.8.
//!
//! # Representation
//!
//! For `n` variables the DBM has dimension `2n`: index `2k` stands for
//! `+x_k` and `2k+1` for `−x_k`. Entry `m[i][j]` bounds `V_i − V_j ≤
//! m[i][j]` (with `V_{2k} = x_k`, `V_{2k+1} = −x_k`); `INF` means
//! unconstrained. All stored octagons are kept *strongly closed* (shortest
//! paths + unary strengthening with integer tightening), so equality and
//! inclusion are canonical.

use std::fmt;

use air_lang::ast::{AExp, BExp, CmpOp};
use air_lang::Universe;

use crate::interval::Interval;
use crate::traits::{gamma_row_scan, Abstraction, Transfer};
use crate::value::AbstractValue;

/// "Unconstrained" sentinel weight.
const INF: i64 = i64::MAX;

/// `true` when `±v ± w` cannot leave `i64` for any `w` passing the same
/// test: the range where every bound of a store is exact in the matrix.
fn fits_bounds(v: i64) -> bool {
    v.unsigned_abs() <= (i64::MAX / 2) as u64
}

/// The bound `V_i − V_j` of one store, exact (`V_{2k} = x_k`,
/// `V_{2k+1} = −x_k`).
fn store_bound(store: &[i64], i: usize, j: usize) -> i128 {
    let val = |k: usize| {
        let v = i128::from(store[k / 2]);
        if k.is_multiple_of(2) {
            v
        } else {
            -v
        }
    };
    val(i) - val(j)
}

/// A store bound as a matrix entry: one past `i64` is widened to `INF`
/// above and `i64::MIN` below, which only weakens the constraint.
fn clamp_bound(c: i128) -> i64 {
    i64::try_from(c).unwrap_or(if c > 0 { INF } else { i64::MIN })
}

fn wadd(a: i64, b: i64) -> i64 {
    if a == INF || b == INF {
        INF
    } else {
        a.saturating_add(b)
    }
}

/// An octagon over `n` program variables, or `⊥`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Oct {
    n: usize,
    /// Row-major `2n × 2n` bound matrix; `None` is `⊥`.
    m: Option<Vec<i64>>,
}

impl Oct {
    fn dim(&self) -> usize {
        2 * self.n
    }

    fn at(&self, i: usize, j: usize) -> i64 {
        // ⊥ carries no matrix; every caller filters ⊥ first, but an
        // unconstrained bound (`INF`) keeps this total and sound if one
        // slips through on a user-driven path.
        match &self.m {
            Some(m) => m[i * self.dim() + j],
            None => INF,
        }
    }

    fn set_min(m: &mut [i64], dim: usize, i: usize, j: usize, c: i64) {
        let idx = i * dim + j;
        if c < m[idx] {
            m[idx] = c;
        }
        // Coherence: V_i − V_j and V_{j̄} − V_{ī} are the same constraint.
        let idx2 = (j ^ 1) * dim + (i ^ 1);
        if c < m[idx2] {
            m[idx2] = c;
        }
    }

    /// The bound on `x_k` as an interval (derived from unary constraints).
    pub fn var_interval(&self, k: usize) -> Interval {
        match &self.m {
            None => Interval::Empty,
            Some(_) => {
                let hi = self.at(2 * k, 2 * k + 1); // 2·x_k ≤ hi
                let lo = self.at(2 * k + 1, 2 * k); // −2·x_k ≤ lo
                let hi_b = if hi == INF {
                    crate::interval::IntervalBound::PosInf
                } else {
                    crate::interval::IntervalBound::Fin(hi.div_euclid(2))
                };
                let lo_b = if lo == INF {
                    crate::interval::IntervalBound::NegInf
                } else {
                    crate::interval::IntervalBound::Fin(-(lo.div_euclid(2)))
                };
                Interval::from_bounds(lo_b, hi_b)
            }
        }
    }
}

impl fmt::Display for Oct {
    /// Prints per-variable boxes plus any *informative* binary constraint:
    /// a finite bound on `±vᵢ ± vⱼ` strictly tighter than what the boxes
    /// already imply.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(_) = &self.m else {
            return write!(f, "⊥");
        };
        let mut first = true;
        let mut emit = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            write!(f, "{s}")
        };
        let boxes: Vec<Interval> = (0..self.n).map(|k| self.var_interval(k)).collect();
        for (k, iv) in boxes.iter().enumerate() {
            if *iv != Interval::top() {
                emit(f, format!("v{k} ∈ {iv}"))?;
            }
        }
        use crate::interval::IntervalBound::Fin;
        let hi_of = |iv: &Interval| {
            iv.hi().and_then(|b| match b {
                Fin(v) => Some(v),
                _ => None,
            })
        };
        let lo_of = |iv: &Interval| {
            iv.lo().and_then(|b| match b {
                Fin(v) => Some(v),
                _ => None,
            })
        };
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                // vᵢ − vⱼ ≤ c and vⱼ − vᵢ ≤ c.
                let diff_hi = self.at(2 * i, 2 * j);
                let implied = hi_of(&boxes[i]).zip(lo_of(&boxes[j])).map(|(a, b)| a - b);
                if diff_hi != INF && implied.is_none_or(|imp| diff_hi < imp) {
                    emit(f, format!("v{i} - v{j} <= {diff_hi}"))?;
                }
                let diff_lo = self.at(2 * j, 2 * i);
                let implied = hi_of(&boxes[j]).zip(lo_of(&boxes[i])).map(|(a, b)| a - b);
                if diff_lo != INF && implied.is_none_or(|imp| diff_lo < imp) {
                    emit(f, format!("v{j} - v{i} <= {diff_lo}"))?;
                }
                // vᵢ + vⱼ ≤ c and −vᵢ − vⱼ ≤ c.
                let sum_hi = self.at(2 * i, 2 * j + 1);
                let implied = hi_of(&boxes[i]).zip(hi_of(&boxes[j])).map(|(a, b)| a + b);
                if sum_hi != INF && implied.is_none_or(|imp| sum_hi < imp) {
                    emit(f, format!("v{i} + v{j} <= {sum_hi}"))?;
                }
                let sum_lo = self.at(2 * i + 1, 2 * j);
                let implied = lo_of(&boxes[i])
                    .zip(lo_of(&boxes[j]))
                    .map(|(a, b)| -(a + b));
                if sum_lo != INF && implied.is_none_or(|imp| sum_lo < imp) {
                    emit(f, format!("v{i} + v{j} >= {}", -sum_lo))?;
                }
            }
        }
        if first {
            write!(f, "⊤")?;
        }
        Ok(())
    }
}

/// A linear expression `Σ coeffᵢ·xᵢ + k` extracted from an [`AExp`].
#[derive(Clone, Debug, PartialEq)]
struct LinExpr {
    /// Sparse `(var_index, coeff)` terms with nonzero coefficients.
    terms: Vec<(usize, i64)>,
    constant: i64,
}

impl LinExpr {
    fn constant(c: i64) -> LinExpr {
        LinExpr {
            terms: vec![],
            constant: c,
        }
    }

    fn add_term(&mut self, var: usize, coeff: i64) {
        if let Some(t) = self.terms.iter_mut().find(|(v, _)| *v == var) {
            t.1 += coeff;
        } else {
            self.terms.push((var, coeff));
        }
        self.terms.retain(|(_, c)| *c != 0);
    }

    fn scale(&mut self, k: i64) -> Option<()> {
        for t in &mut self.terms {
            t.1 = t.1.checked_mul(k)?;
        }
        self.constant = self.constant.checked_mul(k)?;
        self.terms.retain(|(_, c)| *c != 0);
        Some(())
    }

    fn combine(mut self, other: LinExpr, sign: i64) -> Option<LinExpr> {
        for (v, c) in other.terms {
            self.add_term(v, c.checked_mul(sign)?);
        }
        self.constant = self
            .constant
            .checked_add(other.constant.checked_mul(sign)?)?;
        Some(self)
    }
}

/// The octagon abstract domain over a universe's variables.
///
/// # Example
///
/// ```
/// use air_domains::{Abstraction, OctagonDomain, Transfer};
/// use air_lang::{parse_bexp, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -10, 10), ("y", -10, 10)])?;
/// let dom = OctagonDomain::new(&u);
/// let e = dom.assume(&dom.top(), &parse_bexp("x - y <= 1 && y <= 0")?);
/// assert!(dom.gamma_contains(&e, &[1, 0]));
/// assert!(!dom.gamma_contains(&e, &[2, 0]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct OctagonDomain {
    vars: Vec<String>,
}

impl OctagonDomain {
    /// Creates the domain over the universe's variables (store order).
    pub fn new(universe: &Universe) -> Self {
        OctagonDomain {
            vars: universe.var_names().map(str::to_owned).collect(),
        }
    }

    /// Creates the domain over an explicit variable list.
    pub fn with_vars<I: IntoIterator<Item = S>, S: AsRef<str>>(vars: I) -> Self {
        OctagonDomain {
            vars: vars.into_iter().map(|s| s.as_ref().to_owned()).collect(),
        }
    }

    fn n(&self) -> usize {
        self.vars.len()
    }

    fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    fn raw_top(&self) -> Vec<i64> {
        let dim = 2 * self.n();
        let mut m = vec![INF; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = 0;
        }
        m
    }

    /// Strong closure with integer tightening; returns `None` on an
    /// inconsistent (empty) system.
    fn close(&self, mut m: Vec<i64>) -> Option<Vec<i64>> {
        let dim = 2 * self.n();
        // Floyd–Warshall shortest paths.
        for k in 0..dim {
            for i in 0..dim {
                let mik = m[i * dim + k];
                if mik == INF {
                    continue;
                }
                for j in 0..dim {
                    let v = wadd(mik, m[k * dim + j]);
                    if v < m[i * dim + j] {
                        m[i * dim + j] = v;
                    }
                }
            }
        }
        // Integer tightening of unary bounds: 2x ≤ c ⇒ 2x ≤ 2⌊c/2⌋.
        for i in 0..dim {
            let idx = i * dim + (i ^ 1);
            if m[idx] != INF {
                m[idx] = 2 * m[idx].div_euclid(2);
            }
        }
        // Strengthening: V_i − V_j ≤ (bound(2V_i) + bound(−2V_j)) / 2.
        for i in 0..dim {
            let di = m[i * dim + (i ^ 1)];
            if di == INF {
                continue;
            }
            for j in 0..dim {
                let dj = m[(j ^ 1) * dim + j];
                if dj == INF {
                    continue;
                }
                let v = wadd(di, dj) / 2;
                if v < m[i * dim + j] {
                    m[i * dim + j] = v;
                }
            }
        }
        // Consistency.
        for i in 0..dim {
            if m[i * dim + i] < 0 {
                return None;
            }
            m[i * dim + i] = 0;
        }
        Some(m)
    }

    fn mk(&self, m: Vec<i64>) -> Oct {
        Oct {
            n: self.n(),
            m: self.close(m),
        }
    }

    /// Removes every constraint mentioning variable `x` (rows/columns of
    /// `+x` and `−x`), keeping the rest — sound because the matrix is
    /// closed, so transitive consequences are already explicit.
    fn forget(&self, m: &mut [i64], x: usize) {
        let dim = 2 * self.n();
        for &v in &[2 * x, 2 * x + 1] {
            for j in 0..dim {
                if j != v {
                    m[v * dim + j] = INF;
                    m[j * dim + v] = INF;
                }
            }
        }
    }

    fn linearize(&self, a: &AExp) -> Option<LinExpr> {
        match a {
            AExp::Num(n) => Some(LinExpr::constant(*n)),
            AExp::Var(x) => {
                let i = self.var_index(x)?;
                let mut e = LinExpr::constant(0);
                e.add_term(i, 1);
                Some(e)
            }
            AExp::Add(l, r) => self.linearize(l)?.combine(self.linearize(r)?, 1),
            AExp::Sub(l, r) => self.linearize(l)?.combine(self.linearize(r)?, -1),
            AExp::Mul(l, r) => {
                let le = self.linearize(l)?;
                let re = self.linearize(r)?;
                if le.terms.is_empty() {
                    let mut out = re;
                    out.scale(le.constant)?;
                    Some(out)
                } else if re.terms.is_empty() {
                    let mut out = le;
                    out.scale(re.constant)?;
                    Some(out)
                } else {
                    None
                }
            }
        }
    }

    /// Interval of an arbitrary expression, via per-variable bounds.
    fn eval_interval(&self, oct: &Oct, a: &AExp) -> Interval {
        if oct.m.is_none() {
            return Interval::Empty;
        }
        match a {
            AExp::Num(n) => Interval::from_const(*n),
            AExp::Var(x) => match self.var_index(x) {
                Some(i) => oct.var_interval(i),
                None => Interval::top(),
            },
            AExp::Add(l, r) => self.eval_interval(oct, l).add(&self.eval_interval(oct, r)),
            AExp::Sub(l, r) => self.eval_interval(oct, l).sub(&self.eval_interval(oct, r)),
            AExp::Mul(l, r) => self.eval_interval(oct, l).mul(&self.eval_interval(oct, r)),
        }
    }

    /// Adds the octagonal constraints for `lin ≤ 0` to `m` when `lin` is
    /// octagonal; returns `false` if the shape is not representable (the
    /// caller must then leave the element unrefined).
    fn constrain(&self, m: &mut [i64], lin: &LinExpr) -> bool {
        let dim = 2 * self.n();
        let c = match lin.constant.checked_neg() {
            Some(c) => c,
            None => return false,
        };
        match lin.terms.as_slice() {
            [] => {
                if lin.constant > 0 {
                    if m.is_empty() {
                        return false;
                    }
                    // Unsatisfiable "k ≤ 0": poison the diagonal so closure
                    // detects the inconsistency and yields ⊥.
                    m[0] = -1;
                }
                true
            }
            &[(x, 1)] => {
                // x ≤ c  ⇒  V_{2x} − V_{2x+1} ≤ 2c
                Oct::set_min(m, dim, 2 * x, 2 * x + 1, c.saturating_mul(2));
                true
            }
            &[(x, -1)] => {
                Oct::set_min(m, dim, 2 * x + 1, 2 * x, c.saturating_mul(2));
                true
            }
            &[(x, 2)] => {
                Oct::set_min(m, dim, 2 * x, 2 * x + 1, c);
                true
            }
            &[(x, -2)] => {
                Oct::set_min(m, dim, 2 * x + 1, 2 * x, c);
                true
            }
            &[(x, cx), (y, cy)] if cx.abs() == 1 && cy.abs() == 1 => {
                // cx·x + cy·y ≤ c
                let (i, j) = match (cx, cy) {
                    (1, -1) => (2 * x, 2 * y),      // x − y ≤ c
                    (-1, 1) => (2 * y, 2 * x),      // y − x ≤ c
                    (1, 1) => (2 * x, 2 * y + 1),   // x + y ≤ c
                    (-1, -1) => (2 * x + 1, 2 * y), // −x − y ≤ c
                    _ => unreachable!("abs-1 coefficients"),
                };
                Oct::set_min(m, dim, i, j, c);
                true
            }
            _ => false,
        }
    }

    /// Refines under `b` (or `¬b` when `polarity` is false); identity on
    /// non-octagonal atoms (sound).
    fn refine(&self, oct: &Oct, b: &BExp, polarity: bool) -> Oct {
        let Some(data) = &oct.m else {
            return oct.clone();
        };
        match (b, polarity) {
            (BExp::Tt, true) | (BExp::Ff, false) => oct.clone(),
            (BExp::Tt, false) | (BExp::Ff, true) => self.bottom(),
            (BExp::Not(inner), _) => self.refine(oct, inner, !polarity),
            (BExp::And(l, r), true) | (BExp::Or(l, r), false) => {
                let e1 = self.refine(oct, l, polarity);
                self.refine(&e1, r, polarity)
            }
            (BExp::And(l, r), false) | (BExp::Or(l, r), true) => {
                let e1 = self.refine(oct, l, polarity);
                let e2 = self.refine(oct, r, polarity);
                self.join(&e1, &e2)
            }
            (BExp::Cmp(op, l, r), _) => {
                let op = if polarity { *op } else { op.negate() };
                let (Some(ll), Some(rl)) = (self.linearize(l), self.linearize(r)) else {
                    return oct.clone();
                };
                // l − r op 0
                let Some(diff) = ll.combine(rl, -1) else {
                    return oct.clone();
                };
                let mut m = data.clone();
                let ok = match op {
                    CmpOp::Le => self.constrain(&mut m, &diff),
                    CmpOp::Lt => {
                        let mut d = diff.clone();
                        d.constant = d.constant.saturating_add(1);
                        self.constrain(&mut m, &d)
                    }
                    CmpOp::Ge => {
                        let mut d = diff.clone();
                        if d.scale(-1).is_none() {
                            return oct.clone();
                        }
                        self.constrain(&mut m, &d)
                    }
                    CmpOp::Gt => {
                        let mut d = diff.clone();
                        if d.scale(-1).is_none() {
                            return oct.clone();
                        }
                        d.constant = d.constant.saturating_add(1);
                        self.constrain(&mut m, &d)
                    }
                    CmpOp::Eq => {
                        let mut d2 = diff.clone();
                        let ok1 = self.constrain(&mut m, &diff);
                        let ok2 = d2.scale(-1).is_some() && self.constrain(&mut m, &d2);
                        ok1 && ok2
                    }
                    // ≠ has no octagonal refinement.
                    CmpOp::Ne => return oct.clone(),
                };
                if !ok {
                    return oct.clone();
                }
                self.mk(m)
            }
        }
    }
}

impl Abstraction for OctagonDomain {
    type Elem = Oct;

    fn name(&self) -> &str {
        "Oct"
    }

    fn top(&self) -> Oct {
        Oct {
            n: self.n(),
            m: Some(self.raw_top()),
        }
    }

    fn bottom(&self) -> Oct {
        Oct {
            n: self.n(),
            m: None,
        }
    }

    fn is_bottom(&self, e: &Oct) -> bool {
        e.m.is_none()
    }

    fn leq(&self, a: &Oct, b: &Oct) -> bool {
        match (&a.m, &b.m) {
            (None, _) => true,
            (_, None) => false,
            (Some(x), Some(y)) => x.iter().zip(y).all(|(p, q)| p <= q),
        }
    }

    fn join(&self, a: &Oct, b: &Oct) -> Oct {
        match (&a.m, &b.m) {
            (None, _) => b.clone(),
            (_, None) => a.clone(),
            (Some(x), Some(y)) => Oct {
                n: self.n(),
                // Pointwise max of two closed DBMs is closed.
                m: Some(x.iter().zip(y).map(|(p, q)| *p.max(q)).collect()),
            },
        }
    }

    fn meet(&self, a: &Oct, b: &Oct) -> Oct {
        match (&a.m, &b.m) {
            (None, _) | (_, None) => self.bottom(),
            (Some(x), Some(y)) => self.mk(x.iter().zip(y).map(|(p, q)| *p.min(q)).collect()),
        }
    }

    fn widen(&self, a: &Oct, b: &Oct) -> Oct {
        match (&a.m, &b.m) {
            (None, _) => b.clone(),
            (_, None) => a.clone(),
            (Some(x), Some(y)) => Oct {
                n: self.n(),
                // Unstable bounds jump to INF. The result is deliberately
                // left unclosed: re-closing could undo the widening and
                // break termination (standard octagon caveat).
                m: Some(
                    x.iter()
                        .zip(y)
                        .map(|(p, q)| if q <= p { *p } else { INF })
                        .collect(),
                ),
            },
        }
    }

    fn alpha_store(&self, store: &[i64]) -> Oct {
        let dim = 2 * self.n();
        let mut m = vec![0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                m[i * dim + j] = clamp_bound(store_bound(store, i, j));
            }
        }
        Oct {
            n: self.n(),
            m: Some(m),
        }
    }

    /// The pointwise max with `α({store})`'s bounds `V_i − V_j`, in place.
    fn join_store(&self, acc: &mut Oct, store: &[i64]) {
        let Some(m) = &mut acc.m else {
            *acc = self.alpha_store(store);
            return;
        };
        let dim = 2 * self.n();
        for i in 0..dim {
            for j in 0..dim {
                let b = &mut m[i * dim + j];
                *b = (*b).max(clamp_bound(store_bound(store, i, j)));
            }
        }
    }

    fn gamma_contains(&self, e: &Oct, store: &[i64]) -> bool {
        let Some(m) = &e.m else {
            return false;
        };
        let dim = 2 * self.n();
        for i in 0..dim {
            for j in 0..dim {
                let bound = m[i * dim + j];
                if bound != INF && store_bound(store, i, j) > i128::from(bound) {
                    return false;
                }
            }
        }
        true
    }

    /// One pass over the bounds. The last variable `v` owns the final two
    /// indices, `V_p = v` and `V_{p+1} = −v`. With the row prefix fixed,
    /// a bound between `±v` and a prefix index bounds `v` by a constant, the
    /// unary bounds `±2v ≤ c` bound it by `⌊c/2⌋`, and the bounds among
    /// prefix indices hold for the whole row or for none of it. The row is
    /// the single run between the tightest bounds. A row with a value past
    /// `±i64::MAX / 2` takes the scan instead.
    fn gamma_row(&self, e: &Oct, store: &mut [i64], lo: i64, hi: i64, runs: &mut Vec<(i64, i64)>) {
        let prefix = &store[..store.len() - 1];
        if !(fits_bounds(lo) && fits_bounds(hi) && prefix.iter().all(|&x| fits_bounds(x))) {
            // Such stores' bounds leave `i64`: keep the per-store reference.
            return gamma_row_scan(self, e, store, lo, hi, runs);
        }
        runs.clear();
        let Some(m) = &e.m else {
            return;
        };
        let dim = 2 * self.n();
        let (up, dn) = (dim - 2, dim - 1);
        let bound = |i: usize, j: usize| match m[i * dim + j] {
            INF => None,
            c => Some(i128::from(c)),
        };
        let val = |i: usize| {
            let v = i128::from(store[i / 2]);
            if i.is_multiple_of(2) {
                v
            } else {
                -v
            }
        };
        if bound(up, up).is_some_and(|c| c < 0) || bound(dn, dn).is_some_and(|c| c < 0) {
            return;
        }
        let (mut vlo, mut vhi) = (i128::from(lo), i128::from(hi));
        if let Some(c) = bound(up, dn) {
            vhi = vhi.min(c.div_euclid(2)); // v − (−v) ≤ c
        }
        if let Some(c) = bound(dn, up) {
            vlo = vlo.max(-c.div_euclid(2)); // −v − v ≤ c
        }
        for j in 0..up {
            let vj = val(j);
            if let Some(c) = bound(up, j) {
                vhi = vhi.min(c + vj); // v − V_j ≤ c
            }
            if let Some(c) = bound(dn, j) {
                vlo = vlo.max(-(c + vj)); // −v − V_j ≤ c
            }
            if let Some(c) = bound(j, up) {
                vlo = vlo.max(vj - c); // V_j − v ≤ c
            }
            if let Some(c) = bound(j, dn) {
                vhi = vhi.min(c - vj); // V_j + v ≤ c
            }
        }
        if vlo > vhi {
            return;
        }
        for i in 0..up {
            let vi = val(i);
            for j in 0..up {
                if bound(i, j).is_some_and(|c| vi - val(j) > c) {
                    return;
                }
            }
        }
        runs.push((vlo as i64, vhi as i64));
    }

    /// Only where no bound `V_i − V_j` of a store can leave `i64`: past
    /// that, `alpha_store` widens such bounds and the row kernels keep the
    /// per-store reference path.
    fn convex_rows(&self, universe: &Universe) -> bool {
        (0..universe.num_vars()).all(|k| {
            let (lo, hi) = universe.var_range(k);
            fits_bounds(lo) && fits_bounds(hi)
        })
    }
}

impl Transfer for OctagonDomain {
    fn assign(&self, e: &Oct, var: &str, a: &AExp) -> Oct {
        let Some(data) = &e.m else {
            return self.bottom();
        };
        let Some(x) = self.var_index(var) else {
            return e.clone();
        };
        let dim = 2 * self.n();
        match self.linearize(a) {
            // x := k·self ± c with k = ±1, or affine in one other variable.
            Some(lin) => match lin.terms.as_slice() {
                [] => {
                    let mut m = data.clone();
                    self.forget(&mut m, x);
                    let c = lin.constant;
                    Oct::set_min(&mut m, dim, 2 * x, 2 * x + 1, 2 * c);
                    Oct::set_min(&mut m, dim, 2 * x + 1, 2 * x, -2 * c);
                    self.mk(m)
                }
                &[(y, 1)] if y == x => {
                    // x := x + c: translate all bounds involving x.
                    let c = lin.constant;
                    let mut m = data.clone();
                    for j in 0..dim {
                        for &(v, s) in &[(2 * x, 1i64), (2 * x + 1, -1i64)] {
                            if j != v && j != (v ^ 1) {
                                let row = v * dim + j;
                                if m[row] != INF {
                                    m[row] = m[row].saturating_add(s * c);
                                }
                                let col = j * dim + v;
                                if m[col] != INF {
                                    m[col] = m[col].saturating_sub(s * c);
                                }
                            }
                        }
                    }
                    // Unary bounds shift by 2c.
                    let up = 2 * x * dim + (2 * x + 1);
                    if m[up] != INF {
                        m[up] = m[up].saturating_add(2 * c);
                    }
                    let lo = (2 * x + 1) * dim + 2 * x;
                    if m[lo] != INF {
                        m[lo] = m[lo].saturating_sub(2 * c);
                    }
                    self.mk(m)
                }
                &[(y, -1)] if y == x => {
                    // x := −x + c: swap the +x/−x roles, then translate.
                    let mut m = data.clone();
                    let (p, q) = (2 * x, 2 * x + 1);
                    for j in 0..dim {
                        if j != p && j != q {
                            m.swap(p * dim + j, q * dim + j);
                            m.swap(j * dim + p, j * dim + q);
                        }
                    }
                    m.swap(p * dim + q, q * dim + p);
                    let translated = self.mk(m);
                    if lin.constant == 0 {
                        translated
                    } else {
                        self.assign(
                            &translated,
                            var,
                            &AExp::var(var).add(AExp::Num(lin.constant)),
                        )
                    }
                }
                &[(y, 1)] => {
                    // x := y + c (y ≠ x).
                    let c = lin.constant;
                    let mut m = data.clone();
                    self.forget(&mut m, x);
                    // x − y ≤ c and y − x ≤ −c.
                    Oct::set_min(&mut m, dim, 2 * x, 2 * y, c);
                    Oct::set_min(&mut m, dim, 2 * y, 2 * x, -c);
                    self.mk(m)
                }
                &[(y, -1)] => {
                    // x := −y + c (y ≠ x): x + y ≤ c and −x − y ≤ −c.
                    let c = lin.constant;
                    let mut m = data.clone();
                    self.forget(&mut m, x);
                    Oct::set_min(&mut m, dim, 2 * x, 2 * y + 1, c);
                    Oct::set_min(&mut m, dim, 2 * x + 1, 2 * y, -c);
                    self.mk(m)
                }
                _ => self.assign_interval(e, x, a),
            },
            None => self.assign_interval(e, x, a),
        }
    }

    fn assume(&self, e: &Oct, b: &BExp) -> Oct {
        self.refine(e, b, true)
    }

    fn havoc(&self, e: &Oct, var: &str) -> Oct {
        let Some(data) = &e.m else {
            return self.bottom();
        };
        let Some(x) = self.var_index(var) else {
            return e.clone();
        };
        let mut m = data.clone();
        self.forget(&mut m, x);
        self.mk(m)
    }
}

impl OctagonDomain {
    /// Fallback assignment: evaluate the expression as an interval, forget
    /// the target, set its bounds.
    fn assign_interval(&self, e: &Oct, x: usize, a: &AExp) -> Oct {
        let Some(data) = &e.m else {
            return self.bottom();
        };
        let iv = self.eval_interval(e, a);
        let dim = 2 * self.n();
        let mut m = data.clone();
        self.forget(&mut m, x);
        match iv {
            Interval::Empty => return self.bottom(),
            Interval::Range(lo, hi) => {
                if let crate::interval::IntervalBound::Fin(h) = hi {
                    Oct::set_min(&mut m, dim, 2 * x, 2 * x + 1, h.saturating_mul(2));
                }
                if let crate::interval::IntervalBound::Fin(l) = lo {
                    Oct::set_min(&mut m, dim, 2 * x + 1, 2 * x, (-l).saturating_mul(2));
                }
            }
        }
        self.mk(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::laws;
    use air_lang::gen::XorShift;
    use air_lang::{parse_bexp, Concrete, Universe};

    /// Store bounds `±x ± y` past `i64` are widened, never wrapped: the
    /// store stays in `γ(α({σ}))`, and the bounds that fit stay exact.
    #[test]
    fn store_bounds_at_the_ends_of_i64_are_sound() {
        let (min, max) = (i64::MIN, i64::MAX - 1);
        let u = Universe::new(&[("x", min, min + 2), ("y", max - 2, max)]).unwrap();
        let dom = OctagonDomain::new(&u);
        for s in [[min, max], [min + 2, max - 2], [min + 1, max]] {
            let e = dom.alpha_store(&s);
            assert!(dom.gamma_contains(&e, &s), "{s:?}");
            let mut acc = dom.alpha_store(&[min + 2, max - 2]);
            dom.join_store(&mut acc, &s);
            assert!(dom.gamma_contains(&acc, &s), "{s:?}");
        }
        // The sum bound `x + y = −3` fits `i64`: both neighbours are out.
        let e = dom.alpha_store(&[min, max - 2]);
        assert!(!dom.gamma_contains(&e, &[min + 1, max - 2]));
        assert!(!dom.gamma_contains(&e, &[min, max - 3]));
    }

    /// `gamma_row` equals the `gamma_contains` scan on arbitrary bound
    /// matrices, not only the closed ones the transfers build: odd unary
    /// bounds, negative diagonals, unclosed and `INF` entries.
    #[test]
    fn gamma_row_matches_the_scan_on_arbitrary_matrices() {
        let mut rng = XorShift::new(17);
        for n in 1..=3 {
            let decls: Vec<(&str, i64, i64)> =
                ["x", "y", "z"][..n].iter().map(|&v| (v, -3, 3)).collect();
            let u = Universe::new(&decls).unwrap();
            let dom = OctagonDomain::new(&u);
            let dim = 2 * n;
            for _ in 0..200 {
                let m = (0..dim * dim)
                    .map(|_| match rng.below(4) {
                        0 => INF,
                        _ => rng.range_i64(-7, 7),
                    })
                    .collect();
                let e = Oct { n, m: Some(m) };
                let (mut runs, mut scanned) = (Vec::new(), Vec::new());
                for base in (0..u.size()).step_by(u.row_len()) {
                    let mut store = u.store_at(base);
                    dom.gamma_row(&e, &mut store, -3, 3, &mut runs);
                    gamma_row_scan(&dom, &e, &mut store, -3, 3, &mut scanned);
                    assert_eq!(runs, scanned, "{e:?} at row {base}");
                }
            }
        }
    }

    fn universe() -> Universe {
        Universe::new(&[("x", -6, 6), ("y", -6, 6)]).unwrap()
    }

    fn some_sets(u: &Universe) -> Vec<air_lang::StateSet> {
        vec![
            u.empty(),
            u.full(),
            u.filter(|s| s[0] > 0),
            u.filter(|s| s[0] == s[1]),
            u.filter(|s| s[0] + s[1] <= 1),
            u.filter(|s| s[0] == 2 && s[1] == -3),
            u.filter(|s| s[0] - s[1] >= 2 && s[0] <= 4),
        ]
    }

    #[test]
    fn closure_and_insertion_laws() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        laws::check_closure_laws(&dom, &u, &some_sets(&u)).unwrap();
        laws::check_insertion(&dom, &u, &some_sets(&u)).unwrap();
    }

    #[test]
    fn octagons_are_relational() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        // α({(0,0), (3,3)}) keeps x = y; the interval hull would not.
        let s = u.filter(|st| (st[0] == 0 || st[0] == 3) && st[1] == st[0]);
        let a = dom.alpha_set(&u, &s);
        assert!(dom.gamma_contains(&a, &[2, 2]));
        assert!(!dom.gamma_contains(&a, &[2, 1]));
    }

    #[test]
    fn assume_octagonal_guards() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let e = dom.assume(&dom.top(), &parse_bexp("x - y <= 1").unwrap());
        assert!(dom.gamma_contains(&e, &[1, 0]));
        assert!(!dom.gamma_contains(&e, &[3, 0]));
        let e2 = dom.assume(&dom.top(), &parse_bexp("x + y = 2").unwrap());
        assert!(dom.gamma_contains(&e2, &[5, -3]));
        assert!(!dom.gamma_contains(&e2, &[1, 2]));
    }

    #[test]
    fn assume_strict_inequalities_tighten_by_one() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let e = dom.assume(&dom.top(), &parse_bexp("x < 3").unwrap());
        assert!(dom.gamma_contains(&e, &[2, 0]));
        assert!(!dom.gamma_contains(&e, &[3, 0]));
        let e2 = dom.assume(&dom.top(), &parse_bexp("x > y").unwrap());
        assert!(dom.gamma_contains(&e2, &[1, 0]));
        assert!(!dom.gamma_contains(&e2, &[0, 0]));
    }

    #[test]
    fn contradiction_is_bottom() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let e = dom.assume(&dom.top(), &parse_bexp("x <= 0 && x >= 1").unwrap());
        assert!(dom.is_bottom(&e));
    }

    #[test]
    fn assignments_exact_forms() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let start = dom.assume(&dom.top(), &parse_bexp("x = 2 && y = 5").unwrap());
        // x := x + 1
        let e = dom.assign(&start, "x", &AExp::var("x").add(AExp::Num(1)));
        assert_eq!(dom.gamma_set(&u, &e), u.filter(|s| s[0] == 3 && s[1] == 5));
        // x := y
        let e2 = dom.assign(&start, "x", &AExp::var("y"));
        assert_eq!(dom.gamma_set(&u, &e2), u.filter(|s| s[0] == 5 && s[1] == 5));
        // x := -x
        let e3 = dom.assign(&start, "x", &AExp::var("x").neg());
        assert_eq!(
            dom.gamma_set(&u, &e3),
            u.filter(|s| s[0] == -2 && s[1] == 5)
        );
        // x := 4
        let e4 = dom.assign(&start, "x", &AExp::Num(4));
        assert_eq!(dom.gamma_set(&u, &e4), u.filter(|s| s[0] == 4 && s[1] == 5));
        // x := -y + 1
        let e5 = dom.assign(&start, "x", &AExp::Num(1).sub(AExp::var("y")));
        assert_eq!(
            dom.gamma_set(&u, &e5),
            u.filter(|s| s[0] == -4 && s[1] == 5)
        );
    }

    #[test]
    fn assignment_preserves_relations_under_translation() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let eq = dom.assume(&dom.top(), &parse_bexp("x = y && x >= 0").unwrap());
        let e = dom.assign(&eq, "x", &AExp::var("x").add(AExp::Num(1)));
        // Now x = y + 1.
        assert!(dom.gamma_contains(&e, &[3, 2]));
        assert!(!dom.gamma_contains(&e, &[3, 3]));
    }

    #[test]
    fn nonlinear_assignment_falls_back_to_intervals() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let start = dom.assume(
            &dom.top(),
            &parse_bexp("x >= 1 && x <= 2 && y = 1").unwrap(),
        );
        let e = dom.assign(&start, "y", &AExp::var("x").mul(AExp::var("x")));
        // y ∈ [1, 4], relation with x lost.
        assert!(dom.gamma_contains(&e, &[1, 4]));
        assert!(!dom.gamma_contains(&e, &[1, 5]));
        assert!(!dom.gamma_contains(&e, &[1, 0]));
    }

    #[test]
    fn transfer_soundness_against_concrete() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let sem = Concrete::new(&u);
        let sets = some_sets(&u);
        let b = parse_bexp("x - y < 2 && x + y >= -1").unwrap();
        laws::check_transfer_sound(
            &dom,
            &u,
            &sets,
            |s| sem.exec_exp(&air_lang::ast::Exp::Assume(b.clone()), s).ok(),
            |e| dom.assume(e, &b),
        )
        .unwrap();
        let a = AExp::var("y").sub(AExp::Num(1));
        laws::check_transfer_sound(
            &dom,
            &u,
            &sets,
            |s| {
                sem.exec_exp(&air_lang::ast::Exp::assign("x", a.clone()), s)
                    .ok()
            },
            |e| dom.assign(e, "x", &a),
        )
        .unwrap();
    }

    #[test]
    fn widening_makes_chains_stabilize() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let mut x = dom.assume(&dom.top(), &parse_bexp("x = 0 && y = 0").unwrap());
        for k in 1..20 {
            let next = dom.assume(
                &dom.top(),
                &parse_bexp(&format!("x >= 0 && x <= {k} && y = 0")).unwrap(),
            );
            let joined = dom.join(&x, &next);
            let widened = dom.widen(&x, &joined);
            if dom.leq(&joined, &x) {
                break;
            }
            x = widened;
        }
        // Upper bound of x must have been widened away.
        assert!(dom.gamma_contains(&x, &[6, 0]));
    }

    #[test]
    fn three_variable_relations_compose() {
        let u3 = Universe::new(&[("x", -5, 5), ("y", -5, 5), ("z", -5, 5)]).unwrap();
        let dom = OctagonDomain::new(&u3);
        // x ≤ y and y ≤ z: transitivity through closure gives x ≤ z.
        let e = dom.assume(&dom.top(), &parse_bexp("x <= y && y <= z").unwrap());
        assert!(dom.gamma_contains(&e, &[0, 1, 2]));
        assert!(!dom.gamma_contains(&e, &[3, 4, 2])); // x ≤ z violated
                                                      // var_interval reads derived bounds after closure.
        let e2 = dom.assume(&e, &parse_bexp("z <= 1 && x >= 0").unwrap());
        assert_eq!(e2.var_interval(1), crate::interval::Interval::of(0, 1));
    }

    #[test]
    fn eval_interval_fallback_bounds() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let e = dom.assume(
            &dom.top(),
            &parse_bexp("x >= 1 && x <= 2 && y = 3").unwrap(),
        );
        let iv = dom.eval_interval(&e, &AExp::var("x").mul(AExp::var("y")));
        assert_eq!(iv, crate::interval::Interval::of(3, 6));
    }

    #[test]
    fn havoc_drops_only_the_target() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let e = dom.assume(
            &dom.top(),
            &parse_bexp("x = y && y >= 1 && y <= 3").unwrap(),
        );
        let h = dom.havoc(&e, "x");
        assert!(dom.gamma_contains(&h, &[-6, 2]));
        assert!(!dom.gamma_contains(&h, &[0, 4])); // y's bound survives
        assert!(dom.is_bottom(&dom.havoc(&dom.bottom(), "x")));
    }

    #[test]
    fn display_renders_boxes() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let e = dom.assume(&dom.top(), &parse_bexp("x >= 0 && x <= 3").unwrap());
        assert!(e.to_string().contains("[0, 3]"));
        assert_eq!(dom.bottom().to_string(), "⊥");
        assert_eq!(dom.top().to_string(), "⊤");
    }

    #[test]
    fn display_shows_informative_relations() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        // A pure relation with no finite boxes.
        let rel = dom.assume(&dom.top(), &parse_bexp("x - y <= 1").unwrap());
        assert_eq!(rel.to_string(), "v0 - v1 <= 1");
        // A relation fully implied by the boxes is elided.
        let boxed = dom.assume(
            &dom.top(),
            &parse_bexp("x >= 0 && x <= 2 && y >= 0 && y <= 2").unwrap(),
        );
        assert_eq!(boxed.to_string(), "v0 ∈ [0, 2] ∧ v1 ∈ [0, 2]");
        // Sum constraints appear when informative.
        let sum = dom.assume(&boxed, &parse_bexp("x + y <= 3").unwrap());
        assert!(sum.to_string().contains("v0 + v1 <= 3"), "{sum}");
    }
}
