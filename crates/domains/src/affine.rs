//! Karr's domain of affine equalities.
//!
//! Elements are affine subspaces `{x ∈ ℚⁿ | A·x = b}` represented by a
//! reduced row-echelon constraint system over exact rationals. Karr's
//! domain expresses relational invariants like the countdown loop's
//! `y = x` (Example 7.8) *natively*, making it an instructive base domain
//! for the repair engine: analyses that need those invariants start
//! complete where intervals must be repaired.
//!
//! Operations (Karr 1976):
//! - `meet`: concatenate constraint rows and re-reduce;
//! - `join`: affine hull — convert to generator form (a support point
//!   plus direction vectors), union the generators, convert back;
//! - assignments of affine expressions: exact by substitution
//!   (invertible case) or projection + new equation;
//! - affine equality guards refine exactly; other guards are identity
//!   (sound).

use std::fmt;

use air_lang::ast::{AExp, BExp, CmpOp};
use air_lang::Universe;

use crate::traits::{Abstraction, Transfer};

/// An exact rational with `i128` parts (plenty for bounded universes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ratio {
    num: i128,
    den: i128, // > 0
}

impl Ratio {
    /// The zero rational.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The unit rational.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// `n/1`.
    pub fn int(n: i64) -> Ratio {
        Ratio {
            num: n as i128,
            den: 1,
        }
    }

    fn normalize(num: i128, den: i128) -> Ratio {
        assert!(den != 0, "zero denominator");
        let g = gcd128(num, den).max(1);
        let (num, den) = (num / g, den / g);
        if den < 0 {
            Ratio {
                num: -num,
                den: -den,
            }
        } else {
            Ratio { num, den }
        }
    }

    fn add(self, o: Ratio) -> Ratio {
        Ratio::normalize(self.num * o.den + o.num * self.den, self.den * o.den)
    }

    fn sub(self, o: Ratio) -> Ratio {
        Ratio::normalize(self.num * o.den - o.num * self.den, self.den * o.den)
    }

    fn mul(self, o: Ratio) -> Ratio {
        Ratio::normalize(self.num * o.num, self.den * o.den)
    }

    fn div(self, o: Ratio) -> Ratio {
        assert!(o.num != 0, "division by zero rational");
        Ratio::normalize(self.num * o.den, self.den * o.num)
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    /// The integer value if integral.
    pub fn as_int(self) -> Option<i128> {
        (self.den == 1).then_some(self.num)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

fn gcd128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One affine constraint `Σ coeffs[i]·xᵢ = rhs`, and the rows of an
/// element's reduced system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AffineRow {
    /// Coefficients per variable (universe order).
    pub coeffs: Vec<Ratio>,
    /// Right-hand side.
    pub rhs: Ratio,
}

impl AffineRow {
    fn is_trivial(&self) -> bool {
        self.coeffs.iter().all(|c| c.is_zero()) && self.rhs.is_zero()
    }

    fn is_inconsistent(&self) -> bool {
        self.coeffs.iter().all(|c| c.is_zero()) && !self.rhs.is_zero()
    }
}

/// An element of the affine domain: `Bot`, or a consistent reduced system
/// (empty system = ⊤).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Aff {
    /// The empty subspace.
    Bot,
    /// Reduced row-echelon rows, pivot columns strictly increasing.
    Rows(Vec<AffineRow>),
}

/// Gaussian reduction of a system; `None` means inconsistent.
fn reduce(mut rows: Vec<AffineRow>, n: usize) -> Option<Vec<AffineRow>> {
    let mut out: Vec<AffineRow> = Vec::new();
    for col in 0..n {
        // Find a row with a nonzero entry at `col`.
        let Some(pos) = rows.iter().position(|r| !r.coeffs[col].is_zero()) else {
            continue;
        };
        let mut pivot = rows.swap_remove(pos);
        // Scale pivot to 1.
        let p = pivot.coeffs[col];
        for c in &mut pivot.coeffs {
            *c = c.div(p);
        }
        pivot.rhs = pivot.rhs.div(p);
        // Eliminate from the remaining and the already-output rows.
        for r in rows.iter_mut().chain(out.iter_mut()) {
            let f = r.coeffs[col];
            if !f.is_zero() {
                for (rc, pc) in r.coeffs.iter_mut().zip(&pivot.coeffs) {
                    *rc = rc.sub(f.mul(*pc));
                }
                r.rhs = r.rhs.sub(f.mul(pivot.rhs));
            }
        }
        out.push(pivot);
    }
    // Any residual row is all-zero coefficients: check consistency.
    for r in &rows {
        if r.is_inconsistent() {
            return None;
        }
    }
    out.retain(|r| !r.is_trivial());
    // Sort by pivot column for canonical form.
    out.sort_by_key(|r| {
        r.coeffs
            .iter()
            .position(|c| !c.is_zero())
            .unwrap_or(usize::MAX)
    });
    Some(out)
}

/// Generator form: a support point plus direction-space basis.
struct Generators {
    point: Vec<Ratio>,
    directions: Vec<Vec<Ratio>>,
}

/// Karr's affine-equalities domain over a universe's variables.
///
/// # Example
///
/// ```
/// use air_domains::affine::AffineDomain;
/// use air_domains::Abstraction;
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -6, 6), ("y", -6, 6)])?;
/// let dom = AffineDomain::new(&u);
/// // α of diagonal points keeps the equality y = x exactly.
/// let diag = u.filter(|s| s[0] == s[1]);
/// let a = dom.alpha_set(&u, &diag);
/// assert!(dom.gamma_contains(&a, &[4, 4]));
/// assert!(!dom.gamma_contains(&a, &[4, 3]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AffineDomain {
    vars: Vec<String>,
}

impl AffineDomain {
    /// Creates the domain over the universe's variables.
    pub fn new(universe: &Universe) -> Self {
        AffineDomain {
            vars: universe.var_names().map(str::to_owned).collect(),
        }
    }

    fn n(&self) -> usize {
        self.vars.len()
    }

    fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// Linearizes an expression into `coeffs·x + constant` when affine.
    fn linearize(&self, a: &AExp) -> Option<(Vec<Ratio>, Ratio)> {
        match a {
            AExp::Num(v) => Some((vec![Ratio::ZERO; self.n()], Ratio::int(*v))),
            AExp::Var(x) => {
                let i = self.var_index(x)?;
                let mut c = vec![Ratio::ZERO; self.n()];
                c[i] = Ratio::ONE;
                Some((c, Ratio::ZERO))
            }
            AExp::Add(l, r) => {
                let (lc, lk) = self.linearize(l)?;
                let (rc, rk) = self.linearize(r)?;
                Some((
                    lc.iter().zip(&rc).map(|(a, b)| a.add(*b)).collect(),
                    lk.add(rk),
                ))
            }
            AExp::Sub(l, r) => {
                let (lc, lk) = self.linearize(l)?;
                let (rc, rk) = self.linearize(r)?;
                Some((
                    lc.iter().zip(&rc).map(|(a, b)| a.sub(*b)).collect(),
                    lk.sub(rk),
                ))
            }
            AExp::Mul(l, r) => {
                let (lc, lk) = self.linearize(l)?;
                let (rc, rk) = self.linearize(r)?;
                if lc.iter().all(|c| c.is_zero()) {
                    Some((rc.iter().map(|c| c.mul(lk)).collect(), rk.mul(lk)))
                } else if rc.iter().all(|c| c.is_zero()) {
                    Some((lc.iter().map(|c| c.mul(rk)).collect(), lk.mul(rk)))
                } else {
                    None
                }
            }
        }
    }

    /// Converts a reduced constraint system to generator form; `None` for
    /// callers that passed `Bot` (never happens internally).
    fn to_generators(&self, rows: &[AffineRow]) -> Generators {
        let n = self.n();
        // Reduced rows always have a pivot; a trivial (all-zero) row would
        // constrain nothing, so skipping one is sound rather than a panic.
        let pivot_rows: Vec<(&AffineRow, usize)> = rows
            .iter()
            .filter_map(|r| r.coeffs.iter().position(|c| !c.is_zero()).map(|p| (r, p)))
            .collect();
        let free: Vec<usize> = (0..n)
            .filter(|i| !pivot_rows.iter().any(|&(_, p)| p == *i))
            .collect();
        // Support point: free vars = 0, pivots = rhs.
        let mut point = vec![Ratio::ZERO; n];
        for &(r, p) in &pivot_rows {
            point[p] = r.rhs;
        }
        // Directions: one per free var f — set x_f = 1, pivots adjust.
        let mut directions = Vec::with_capacity(free.len());
        for &f in &free {
            let mut d = vec![Ratio::ZERO; n];
            d[f] = Ratio::ONE;
            for &(r, p) in &pivot_rows {
                d[p] = Ratio::ZERO.sub(r.coeffs[f]);
            }
            directions.push(d);
        }
        Generators { point, directions }
    }

    /// Converts generator form back to a reduced constraint system by
    /// finding the null space of the direction matrix.
    fn constraints_of(&self, g: &Generators) -> Vec<AffineRow> {
        let n = self.n();
        // Solve for row vectors a with a·d = 0 for all directions d; then
        // rhs = a·point. Build the direction matrix and compute its null
        // space by Gaussian elimination on the transpose system.
        // Represent candidate `a` via elimination: treat each direction as
        // a linear constraint on (a_0..a_{n-1}).
        let mut sys: Vec<Vec<Ratio>> = g.directions.to_vec();
        // Reduce `sys` (rows are constraints over a-space).
        let mut pivots: Vec<(usize, usize)> = Vec::new(); // (row, col)
        let mut row = 0;
        for col in 0..n {
            let Some(pr) = (row..sys.len()).find(|&r| !sys[r][col].is_zero()) else {
                continue;
            };
            sys.swap(row, pr);
            let p = sys[row][col];
            for c in sys[row].iter_mut() {
                *c = c.div(p);
            }
            for r2 in 0..sys.len() {
                if r2 != row && !sys[r2][col].is_zero() {
                    let f = sys[r2][col];
                    let pivot_row = sys[row].clone();
                    for (rc, pc) in sys[r2].iter_mut().zip(&pivot_row) {
                        *rc = rc.sub(f.mul(*pc));
                    }
                }
            }
            pivots.push((row, col));
            row += 1;
            if row == sys.len() {
                break;
            }
        }
        let pivot_cols: Vec<usize> = pivots.iter().map(|&(_, c)| c).collect();
        let free_cols: Vec<usize> = (0..n).filter(|c| !pivot_cols.contains(c)).collect();
        // Null-space basis: one vector per free column.
        let mut rows_out = Vec::new();
        for &f in &free_cols {
            let mut a = vec![Ratio::ZERO; n];
            a[f] = Ratio::ONE;
            for &(r, c) in &pivots {
                a[c] = Ratio::ZERO.sub(sys[r][f]);
            }
            let rhs = a
                .iter()
                .zip(&g.point)
                .fold(Ratio::ZERO, |acc, (ai, pi)| acc.add(ai.mul(*pi)));
            rows_out.push(AffineRow { coeffs: a, rhs });
        }
        // The null-space system is homogeneous in `a`, so it is always
        // consistent; degrade to "no constraints" (⊤) instead of panicking.
        reduce(rows_out, n).unwrap_or_default()
    }
}

impl Abstraction for AffineDomain {
    type Elem = Aff;

    fn name(&self) -> &str {
        "Karr"
    }

    fn top(&self) -> Aff {
        Aff::Rows(Vec::new())
    }

    fn bottom(&self) -> Aff {
        Aff::Bot
    }

    fn is_bottom(&self, e: &Aff) -> bool {
        matches!(e, Aff::Bot)
    }

    fn leq(&self, a: &Aff, b: &Aff) -> bool {
        match (a, b) {
            (Aff::Bot, _) => true,
            (_, Aff::Bot) => false,
            (Aff::Rows(ra), Aff::Rows(rb)) => {
                // a ≤ b iff adding b's constraints to a changes nothing.
                let mut all = ra.clone();
                all.extend(rb.iter().cloned());
                match reduce(all, self.n()) {
                    Some(rows) => rows == *ra,
                    None => false,
                }
            }
        }
    }

    fn join(&self, a: &Aff, b: &Aff) -> Aff {
        match (a, b) {
            (Aff::Bot, x) | (x, Aff::Bot) => x.clone(),
            (Aff::Rows(ra), Aff::Rows(rb)) => {
                let ga = self.to_generators(ra);
                let gb = self.to_generators(rb);
                let mut directions = ga.directions;
                directions.extend(gb.directions);
                let diff: Vec<Ratio> = gb
                    .point
                    .iter()
                    .zip(&ga.point)
                    .map(|(x, y)| x.sub(*y))
                    .collect();
                if diff.iter().any(|c| !c.is_zero()) {
                    directions.push(diff);
                }
                Aff::Rows(self.constraints_of(&Generators {
                    point: ga.point,
                    directions,
                }))
            }
        }
    }

    fn meet(&self, a: &Aff, b: &Aff) -> Aff {
        match (a, b) {
            (Aff::Bot, _) | (_, Aff::Bot) => Aff::Bot,
            (Aff::Rows(ra), Aff::Rows(rb)) => {
                let mut all = ra.clone();
                all.extend(rb.iter().cloned());
                match reduce(all, self.n()) {
                    Some(rows) => Aff::Rows(rows),
                    None => Aff::Bot,
                }
            }
        }
    }

    fn alpha_store(&self, store: &[i64]) -> Aff {
        let n = self.n();
        let rows = (0..n)
            .map(|i| {
                let mut coeffs = vec![Ratio::ZERO; n];
                coeffs[i] = Ratio::ONE;
                AffineRow {
                    coeffs,
                    rhs: Ratio::int(store[i]),
                }
            })
            .collect();
        Aff::Rows(rows)
    }

    fn gamma_contains(&self, e: &Aff, store: &[i64]) -> bool {
        match e {
            Aff::Bot => false,
            Aff::Rows(rows) => rows.iter().all(|r| {
                let lhs = r
                    .coeffs
                    .iter()
                    .zip(store)
                    .fold(Ratio::ZERO, |acc, (c, &v)| acc.add(c.mul(Ratio::int(v))));
                lhs == r.rhs
            }),
        }
    }

    /// One solve per constraint row. With the row prefix fixed, a row
    /// `Σ cᵢ·xᵢ = b` either does not mention the last variable (a constant
    /// test) or pins it to `v = (b − Σ_prefix cᵢ·xᵢ) / c_last`, which must
    /// be an integer in range. The answer is the whole row, one value, or
    /// nothing.
    fn gamma_row(&self, e: &Aff, store: &mut [i64], lo: i64, hi: i64, runs: &mut Vec<(i64, i64)>) {
        runs.clear();
        let Aff::Rows(rows) = e else {
            return;
        };
        let last = store.len() - 1;
        let (mut vlo, mut vhi) = (i128::from(lo), i128::from(hi));
        for r in rows {
            let prefix = r.coeffs[..last]
                .iter()
                .zip(&store[..last])
                .fold(Ratio::ZERO, |acc, (c, &v)| acc.add(c.mul(Ratio::int(v))));
            let c = r.coeffs[last];
            if c.is_zero() {
                if prefix != r.rhs {
                    return;
                }
                continue;
            }
            match r.rhs.sub(prefix).div(c).as_int() {
                Some(v) if vlo <= v && v <= vhi => (vlo, vhi) = (v, v),
                _ => return,
            }
        }
        runs.push((vlo as i64, vhi as i64));
    }

    fn convex_rows(&self, _: &Universe) -> bool {
        true
    }
}

impl Transfer for AffineDomain {
    fn assign(&self, e: &Aff, var: &str, a: &AExp) -> Aff {
        let Aff::Rows(rows) = e else {
            return Aff::Bot;
        };
        let Some(xi) = self.var_index(var) else {
            return e.clone();
        };
        let n = self.n();
        match self.linearize(a) {
            Some((coeffs, k)) => {
                // Exact Karr assignment via a fresh-variable encoding:
                // introduce x' with x' = coeffs·x + k, project out x,
                // rename x' to x. Implemented by extending to n+1 dims.
                let mut ext: Vec<AffineRow> = rows
                    .iter()
                    .map(|r| {
                        let mut c = r.coeffs.clone();
                        c.push(Ratio::ZERO);
                        AffineRow {
                            coeffs: c,
                            rhs: r.rhs,
                        }
                    })
                    .collect();
                let mut c = coeffs;
                c.push(Ratio::int(-1)); // coeffs·x − x' = −k
                ext.push(AffineRow {
                    coeffs: c,
                    rhs: Ratio::ZERO.sub(k),
                });
                // Project out dimension xi: eliminate it, then drop the
                // column and move x' (last column) into position xi.
                let Some(reduced) = reduce(ext, n + 1) else {
                    return Aff::Bot;
                };
                // Rows whose pivot is xi are dropped (they only constrain
                // the old value); others have zero in column xi after
                // eliminating with such a row — reduce already did that
                // when xi had a pivot row; rows still mentioning xi with
                // no pivot row for xi must be dropped... after full
                // reduction at most one row has pivot xi; all other rows
                // have zero at xi.
                let mut out = Vec::new();
                for r in reduced {
                    // A trivial row constrains nothing; drop it (sound).
                    let Some(pivot) = r.coeffs.iter().position(|c| !c.is_zero()) else {
                        continue;
                    };
                    if pivot == xi {
                        continue; // constrains the projected-out old x
                    }
                    if !r.coeffs[xi].is_zero() {
                        // xi appears but is not the pivot: cannot happen
                        // in reduced echelon form when a pivot row for xi
                        // exists; if none exists, drop the row (sound).
                        continue;
                    }
                    let mut c = r.coeffs;
                    let Some(xprime) = c.pop() else {
                        continue; // extended column is always present
                    };
                    c[xi] = xprime;
                    out.push(AffineRow {
                        coeffs: c,
                        rhs: r.rhs,
                    });
                }
                match reduce(out, n) {
                    Some(rows) => Aff::Rows(rows),
                    None => Aff::Bot,
                }
            }
            None => {
                // Non-affine: forget x (project it out).
                let Some(reduced) = reduce(rows.clone(), n) else {
                    return Aff::Bot;
                };
                let out: Vec<AffineRow> = reduced
                    .into_iter()
                    .filter(|r| r.coeffs[xi].is_zero())
                    .collect();
                Aff::Rows(out)
            }
        }
    }

    fn havoc(&self, e: &Aff, var: &str) -> Aff {
        let Aff::Rows(rows) = e else {
            return Aff::Bot;
        };
        let Some(xi) = self.var_index(var) else {
            return e.clone();
        };
        // Project out xi: in reduced echelon form, dropping every row that
        // mentions xi is the exact projection.
        let Some(reduced) = reduce(rows.clone(), self.n()) else {
            return Aff::Bot;
        };
        Aff::Rows(
            reduced
                .into_iter()
                .filter(|r| r.coeffs[xi].is_zero())
                .collect(),
        )
    }

    fn assume(&self, e: &Aff, b: &BExp) -> Aff {
        let Aff::Rows(_) = e else {
            return Aff::Bot;
        };
        match b {
            BExp::Tt => e.clone(),
            BExp::Ff => Aff::Bot,
            BExp::And(l, r) => self.assume(&self.assume(e, l), r),
            BExp::Not(inner) => match &**inner {
                // ¬(a ≠ b) is an equality.
                BExp::Cmp(CmpOp::Ne, l, r) => {
                    self.assume(e, &BExp::Cmp(CmpOp::Eq, l.clone(), r.clone()))
                }
                _ => e.clone(),
            },
            BExp::Cmp(CmpOp::Eq, l, r) => {
                let (Some((lc, lk)), Some((rc, rk))) = (self.linearize(l), self.linearize(r))
                else {
                    return e.clone();
                };
                let coeffs: Vec<Ratio> = lc.iter().zip(&rc).map(|(a, b)| a.sub(*b)).collect();
                let rhs = rk.sub(lk);
                let Aff::Rows(rows) = e else {
                    return Aff::Bot;
                };
                let mut all = rows.clone();
                all.push(AffineRow { coeffs, rhs });
                match reduce(all, self.n()) {
                    Some(rows) => Aff::Rows(rows),
                    None => Aff::Bot,
                }
            }
            // Inequalities and disjunctions carry no affine-equality
            // information: identity is sound.
            _ => e.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::laws;
    use air_lang::{parse_bexp, parse_program, Concrete};

    fn universe() -> Universe {
        Universe::new(&[("x", -6, 6), ("y", -6, 6)]).unwrap()
    }

    fn sets(u: &Universe) -> Vec<air_lang::StateSet> {
        vec![
            u.empty(),
            u.full(),
            u.filter(|s| s[0] == s[1]),
            u.filter(|s| s[0] + s[1] == 3),
            u.filter(|s| s[0] == 2 && s[1] == -1),
            u.filter(|s| s[0] == 2),
            u.filter(|s| s[0] == s[1] || s[0] == s[1] + 1),
        ]
    }

    #[test]
    fn rational_arithmetic() {
        let half = Ratio::normalize(1, 2);
        assert_eq!(half.add(half), Ratio::ONE);
        assert_eq!(Ratio::int(3).div(Ratio::int(6)), half);
        assert_eq!(Ratio::normalize(-2, -4), half);
        assert_eq!(Ratio::normalize(2, -4), Ratio::ZERO.sub(half));
        assert_eq!(Ratio::int(5).as_int(), Some(5));
        assert_eq!(half.as_int(), None);
        assert_eq!(half.to_string(), "1/2");
    }

    #[test]
    fn closure_and_insertion_laws() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        laws::check_closure_laws(&dom, &u, &sets(&u)).unwrap();
        laws::check_insertion(&dom, &u, &sets(&u)).unwrap();
    }

    #[test]
    fn alpha_of_line_is_exact() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        let diag = u.filter(|s| s[0] == s[1]);
        let a = dom.alpha_set(&u, &diag);
        assert_eq!(dom.gamma_set(&u, &a), diag);
        let shifted = u.filter(|s| s[1] == s[0] + 2);
        let b = dom.alpha_set(&u, &shifted);
        assert_eq!(dom.gamma_set(&u, &b), shifted);
    }

    #[test]
    fn join_is_affine_hull() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        // Two points span a line.
        let p1 = dom.alpha_store(&[0, 0]);
        let p2 = dom.alpha_store(&[2, 2]);
        let line = dom.join(&p1, &p2);
        assert!(dom.gamma_contains(&line, &[5, 5]));
        assert!(!dom.gamma_contains(&line, &[1, 2]));
        // Two parallel lines span the plane.
        let l1 = dom.alpha_set(&u, &u.filter(|s| s[0] == s[1]));
        let l2 = dom.alpha_set(&u, &u.filter(|s| s[0] == s[1] + 1));
        assert_eq!(dom.join(&l1, &l2), dom.top());
    }

    #[test]
    fn meet_intersects_subspaces() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        let diag = dom.alpha_set(&u, &u.filter(|s| s[0] == s[1]));
        let anti = dom.alpha_set(&u, &u.filter(|s| s[0] + s[1] == 4));
        let m = dom.meet(&diag, &anti);
        assert_eq!(dom.gamma_set(&u, &m), u.filter(|s| s[0] == 2 && s[1] == 2));
        // Parallel disjoint lines meet at ⊥.
        let shifted = dom.alpha_set(&u, &u.filter(|s| s[0] == s[1] + 1));
        assert!(dom.is_bottom(&dom.meet(&diag, &shifted)));
    }

    #[test]
    fn leq_is_subspace_inclusion() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        let point = dom.alpha_store(&[1, 1]);
        let diag = dom.alpha_set(&u, &u.filter(|s| s[0] == s[1]));
        assert!(dom.leq(&point, &diag));
        assert!(!dom.leq(&diag, &point));
        assert!(dom.leq(&diag, &dom.top()));
        assert!(dom.leq(&dom.bottom(), &point));
    }

    #[test]
    fn affine_assignments_are_exact() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        let diag = dom.alpha_set(&u, &u.filter(|s| s[0] == s[1]));
        // y := y + 1 turns y = x into y = x + 1.
        let e = dom.assign(&diag, "y", &AExp::var("y").add(AExp::Num(1)));
        assert!(dom.gamma_contains(&e, &[2, 3]));
        assert!(!dom.gamma_contains(&e, &[2, 2]));
        // x := x - y zeroes x on the diagonal... x' = x − y = 0 with the
        // *old* y = old x: new state (0, y).
        let e2 = dom.assign(&diag, "x", &AExp::var("x").sub(AExp::var("y")));
        assert!(dom.gamma_contains(&e2, &[0, 5]));
        assert!(!dom.gamma_contains(&e2, &[1, 5]));
        // Self-referential swap-style chain keeps exactness:
        // from y = x: x := 2*x; now x = 2y.
        let e3 = dom.assign(&diag, "x", &AExp::Num(2).mul(AExp::var("x")));
        assert!(dom.gamma_contains(&e3, &[4, 2]));
        assert!(!dom.gamma_contains(&e3, &[4, 4]));
    }

    #[test]
    fn nonaffine_assignment_forgets() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        let diag = dom.alpha_set(&u, &u.filter(|s| s[0] == s[1]));
        let e = dom.assign(&diag, "y", &AExp::var("x").mul(AExp::var("x")));
        // y unconstrained, x unconstrained too (the x = y row is dropped
        // because it mentioned y).
        assert_eq!(e, dom.top());
    }

    #[test]
    fn equality_guards_refine() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        let e = dom.assume(&dom.top(), &parse_bexp("x = y + 1").unwrap());
        assert!(dom.gamma_contains(&e, &[3, 2]));
        assert!(!dom.gamma_contains(&e, &[3, 3]));
        // Contradiction detected.
        let bot = dom.assume(&e, &parse_bexp("x = y").unwrap());
        assert!(dom.is_bottom(&bot));
        // Double negation of ≠ is =.
        let e2 = dom.assume(&dom.top(), &parse_bexp("!(x != y)").unwrap());
        assert!(dom.gamma_contains(&e2, &[2, 2]));
        assert!(!dom.gamma_contains(&e2, &[2, 1]));
    }

    #[test]
    fn transfer_soundness_against_concrete() {
        let u = universe();
        let dom = AffineDomain::new(&u);
        let sem = Concrete::new(&u);
        let b = parse_bexp("x = y && x >= 0").unwrap();
        laws::check_transfer_sound(
            &dom,
            &u,
            &sets(&u),
            |s| sem.exec_exp(&air_lang::ast::Exp::Assume(b.clone()), s).ok(),
            |e| dom.assume(e, &b),
        )
        .unwrap();
        let a = AExp::var("x").add(AExp::var("y")).sub(AExp::Num(1));
        laws::check_transfer_sound(
            &dom,
            &u,
            &sets(&u),
            |s| {
                sem.exec_exp(&air_lang::ast::Exp::assign("y", a.clone()), s)
                    .ok()
            },
            |e| dom.assign(e, "y", &a),
        )
        .unwrap();
    }

    #[test]
    fn countdown_invariant_is_native() {
        // The Example 7.8 loop preserves y − x; Karr's analyzer keeps it.
        let u = Universe::new(&[("x", -2, 6), ("y", -8, 6)]).unwrap();
        let dom = AffineDomain::new(&u);
        let prog = parse_program("x := x - 1; y := y - 1").unwrap();
        let start = dom.assume(&dom.top(), &parse_bexp("x = y").unwrap());
        let out = crate::analyzer::Analyzer::new(&dom)
            .exec(&prog, &start)
            .unwrap();
        assert!(dom.gamma_contains(&out, &[2, 2]));
        assert!(!dom.gamma_contains(&out, &[2, 3]));
    }
}
