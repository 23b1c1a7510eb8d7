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
//! unconstrained. Every octagon is built by α as the tightest bounds its
//! stores satisfy, which is *strongly closed*, and join (a pointwise max)
//! keeps it closed, so equality and inclusion are canonical; only
//! widening leaves a matrix unclosed.

use std::fmt;

use air_lang::Universe;

use crate::interval::Interval;
use crate::traits::{gamma_row_scan, Abstraction};
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

/// The octagon abstract domain over a universe's variables.
///
/// # Example
///
/// ```
/// use air_domains::{Abstraction, OctagonDomain};
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -10, 10), ("y", -10, 10)])?;
/// let dom = OctagonDomain::new(&u);
/// // α keeps the relation x = y of the two stores; a box would not.
/// let e = dom.alpha_set(&u, &u.filter(|s| s[0] == s[1] && s[0] % 5 == 0));
/// assert!(dom.gamma_contains(&e, &[1, 1]));
/// assert!(!dom.gamma_contains(&e, &[1, 0]));
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

    fn raw_top(&self) -> Vec<i64> {
        let dim = 2 * self.n();
        let mut m = vec![INF; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = 0;
        }
        m
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::laws;
    use air_lang::gen::XorShift;
    use air_lang::Universe;

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
    fn widening_makes_chains_stabilize() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let upto = |k: i64| dom.alpha_set(&u, &u.filter(|s| (0..=k).contains(&s[0]) && s[1] == 0));
        let mut x = upto(0);
        for k in 1..20 {
            let joined = dom.join(&x, &upto(k.min(6)));
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
        // x ≤ y and y ≤ z: the closed matrix holds x ≤ z as well.
        let chain = |s: &[i64]| s[0] <= s[1] && s[1] <= s[2];
        let e = dom.alpha_set(&u3, &u3.filter(chain));
        assert!(dom.gamma_contains(&e, &[0, 1, 2]));
        assert!(!dom.gamma_contains(&e, &[3, 4, 2]));
        // var_interval reads derived bounds after closure.
        let e2 = dom.alpha_set(&u3, &u3.filter(|s| chain(s) && s[2] <= 1 && s[0] >= 0));
        assert_eq!(e2.var_interval(1), crate::interval::Interval::of(0, 1));
    }

    #[test]
    fn display_renders_boxes() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let e = dom.alpha_set(&u, &u.filter(|s| (0..=3).contains(&s[0])));
        assert!(e.to_string().contains("[0, 3]"), "{e}");
        assert_eq!(dom.bottom().to_string(), "⊥");
        assert_eq!(dom.top().to_string(), "⊤");
    }

    #[test]
    fn display_shows_informative_relations() {
        let u = universe();
        let dom = OctagonDomain::new(&u);
        let rel = dom.alpha_set(&u, &u.filter(|s| s[0] - s[1] <= 1));
        assert!(rel.to_string().contains("v0 - v1 <= 1"), "{rel}");
        // A relation fully implied by the boxes is elided.
        let in_box = |s: &[i64]| (0..=2).contains(&s[0]) && (0..=2).contains(&s[1]);
        let boxed = dom.alpha_set(&u, &u.filter(in_box));
        assert_eq!(boxed.to_string(), "v0 ∈ [0, 2] ∧ v1 ∈ [0, 2]");
        // Sum constraints appear when informative.
        let sum = dom.alpha_set(&u, &u.filter(|s| in_box(s) && s[0] + s[1] <= 3));
        assert!(sum.to_string().contains("v0 + v1 <= 3"), "{sum}");
    }
}
