//! Concrete collecting semantics `⟦·⟧ : Reg → ℘(Σ) → ℘(Σ)`.
//!
//! Basic commands are additive by construction (they are lifted pointwise
//! from stores to state sets), exactly as the paper assumes in Section 3.2:
//!
//! ```text
//! ⟦skip⟧S   = S
//! ⟦x := a⟧S = { σ[x ↦ ⟦a⟧σ] | σ ∈ S }
//! ⟦b?⟧S     = { σ ∈ S | ⟦b⟧σ = tt }
//! ⟦r1; r2⟧S = ⟦r2⟧(⟦r1⟧S)        ⟦r1 ⊕ r2⟧S = ⟦r1⟧S ∪ ⟦r2⟧S
//! ⟦r*⟧S     = ∪ₙ ⟦r⟧ⁿS
//! ```
//!
//! # Universe restriction
//!
//! Over a finite [`Universe`] the transfer functions are *restricted*: an
//! assignment whose result leaves the declared ranges produces no
//! successor for that store (the store is dropped), so every transfer
//! function is total and additive on `℘(Σ)` — the design point of the
//! paper's pilot implementation on finite integer domains. Semantically
//! this analyzes the universe-restricted program, i.e. the original
//! program with an implicit in-bounds assumption after each assignment;
//! size universes so the restriction does not bite on the inputs of
//! interest. The [`Concrete::strict`] mode instead raises
//! [`SemError::UniverseEscape`] on the first escape, which is useful to
//! *validate* that a universe is large enough.

use std::fmt;
use std::sync::Arc;

use crate::ast::{AExp, BExp, Exp, Reg};
use crate::resolve::{ResolvedAExp, ResolvedBExp};
use crate::store::{StateSet, Store, Universe};

/// Errors raised by concrete evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SemError {
    /// A variable not declared in the universe was referenced.
    UnknownVar(Arc<str>),
    /// Arithmetic overflowed `i64`.
    Overflow,
    /// An assignment produced a store outside the universe.
    UniverseEscape {
        /// The variable assigned.
        var: Arc<str>,
        /// The escaping value.
        value: i64,
        /// The pre-state, rendered for diagnostics.
        store: Store,
    },
    /// A Kleene-star iteration failed to converge (cannot happen on a
    /// finite universe unless the bound is misconfigured).
    Divergence,
    /// A [`Governor`](air_lattice::Governor) budget ran out mid-execution
    /// (fuel, deadline, or cooperative cancellation).
    Exhausted(air_lattice::Exhaustion),
}

impl fmt::Display for SemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemError::UnknownVar(x) => write!(f, "variable `{x}` is not in the universe"),
            SemError::Overflow => write!(f, "arithmetic overflow during evaluation"),
            SemError::UniverseEscape { var, value, store } => write!(
                f,
                "assignment `{var} := {value}` from store {store:?} escapes the universe"
            ),
            SemError::Divergence => write!(f, "Kleene iteration failed to converge"),
            SemError::Exhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SemError {}

impl From<air_lattice::Exhaustion> for SemError {
    fn from(e: air_lattice::Exhaustion) -> Self {
        SemError::Exhausted(e)
    }
}

/// The concrete collecting semantics over a fixed universe.
///
/// # Example
///
/// ```
/// use air_lang::{parse_program, Concrete, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -4, 4)])?;
/// let sem = Concrete::new(&u);
/// let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }")?;
/// let out = sem.exec(&prog, &u.of_values([-3, 2]))?;
/// assert_eq!(out, u.of_values([2, 3]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Concrete<'u> {
    universe: &'u Universe,
    strict: bool,
}

impl<'u> Concrete<'u> {
    /// Creates the semantics for a universe (universe-restricted mode:
    /// escaping stores are dropped).
    pub fn new(universe: &'u Universe) -> Self {
        Concrete {
            universe,
            strict: false,
        }
    }

    /// Switches to strict mode: any escaping assignment raises
    /// [`SemError::UniverseEscape`] instead of dropping the store. Use this
    /// to validate that a universe is large enough for a workload.
    pub fn strict(universe: &'u Universe) -> Self {
        Concrete {
            universe,
            strict: true,
        }
    }

    /// The underlying universe.
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// `true` in strict mode (escaping assignments error out); used by
    /// caches to key results per semantics mode.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Evaluates an arithmetic expression in a store (one-off; loops over
    /// many stores resolve once with [`ResolvedAExp`]).
    ///
    /// # Errors
    ///
    /// [`SemError::UnknownVar`] for undeclared variables and
    /// [`SemError::Overflow`] on `i64` overflow.
    pub fn eval_aexp(&self, a: &AExp, store: &[i64]) -> Result<i64, SemError> {
        ResolvedAExp::new(self.universe, a).eval(store)
    }

    /// Evaluates a Boolean expression in a store (one-off; see
    /// [`ResolvedBExp`]).
    ///
    /// # Errors
    ///
    /// Propagates arithmetic-evaluation errors.
    pub fn eval_bexp(&self, b: &BExp, store: &[i64]) -> Result<bool, SemError> {
        ResolvedBExp::new(self.universe, b).eval(store)
    }

    /// The set of all universe stores satisfying `b` (the paper's
    /// overloading of `b` as `⟦b?⟧Σ`).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn sat(&self, b: &BExp) -> Result<StateSet, SemError> {
        let b = ResolvedBExp::new(self.universe, b);
        let mut out = self.universe.empty();
        let mut cursor = self.universe.cursor();
        for i in 0..self.universe.size() {
            if b.eval(cursor.seek(i))? {
                out.insert(i);
            }
        }
        Ok(out)
    }

    /// Executes a basic command on a state set.
    ///
    /// Assignments and havoc work on store indices: the successor of
    /// store `i` under `x := v` is `i + (v − σ[x])·stride(x)` once `v` is
    /// known to lie in `x`'s range ([`Universe`]'s mixed-radix layout).
    ///
    /// # Errors
    ///
    /// Evaluation errors; in [`Concrete::strict`] mode additionally
    /// [`SemError::UniverseEscape`] if an assignment leaves the universe
    /// (otherwise the escaping store is dropped).
    pub fn exec_exp(&self, e: &Exp, s: &StateSet) -> Result<StateSet, SemError> {
        let u = self.universe;
        match e {
            Exp::Skip => Ok(s.clone()),
            Exp::Assume(b) => {
                let b = ResolvedBExp::new(u, b);
                let mut out = u.empty();
                let mut cursor = u.cursor();
                for i in s.iter() {
                    if b.eval(cursor.seek(i))? {
                        out.insert(i);
                    }
                }
                Ok(out)
            }
            Exp::Havoc(x) => {
                let xi = u
                    .var_index(x)
                    .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
                let mut out = u.empty();
                if xi + 1 == u.num_vars() {
                    // The fastest variable's fiber is the member's whole
                    // row: fill it in one range insert, then jump to the
                    // first member past it.
                    let row = u.row_len();
                    let mut from = 0;
                    while let Some(i) = s.first_in(from, u.size()) {
                        let base = i - i % row;
                        out.insert_range(base, base + row);
                        from = base + row;
                    }
                    return Ok(out);
                }
                for i in s.iter() {
                    // `i` is in `out` exactly when its fiber already is.
                    if !out.contains(i) {
                        for j in u.fiber(i, xi) {
                            out.insert(j);
                        }
                    }
                }
                Ok(out)
            }
            Exp::Assign(x, a) => {
                let xi = u
                    .var_index(x)
                    .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
                let a = ResolvedAExp::new(u, a);
                let mut out = u.empty();
                let mut cursor = u.cursor();
                for i in s.iter() {
                    let store = cursor.seek(i);
                    let v = a.eval(store)?;
                    match u.reassign(i, xi, store[xi], v) {
                        Some(j) => {
                            out.insert(j);
                        }
                        None if self.strict => {
                            return Err(SemError::UniverseEscape {
                                var: x.clone(),
                                value: v,
                                store: store.to_vec(),
                            });
                        }
                        None => {} // universe-restricted: no successor
                    }
                }
                Ok(out)
            }
        }
    }

    /// Executes a regular command on a state set — the collecting semantics
    /// `⟦r⟧S`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from basic commands; stars on a finite
    /// universe always converge.
    pub fn exec(&self, r: &Reg, s: &StateSet) -> Result<StateSet, SemError> {
        match r {
            Reg::Basic(e) => self.exec_exp(e, s),
            Reg::Seq(r1, r2) => {
                let mid = self.exec(r1, s)?;
                self.exec(r2, &mid)
            }
            Reg::Choice(r1, r2) => Ok(self.exec(r1, s)?.union(&self.exec(r2, s)?)),
            Reg::Star(body) => {
                // lfp(λX. S ∪ ⟦body⟧X); strictly increasing, so at most
                // |Σ| + 1 rounds.
                let mut acc = s.clone();
                for _ in 0..=self.universe.size() {
                    let next = acc.union(&self.exec(body, &acc)?);
                    if next == acc {
                        return Ok(acc);
                    }
                    acc = next;
                }
                Err(SemError::Divergence)
            }
        }
    }

    /// Convenience: executes from the set of stores satisfying `pre`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn exec_from_bexp(&self, r: &Reg, pre: &BExp) -> Result<StateSet, SemError> {
        let input = self.sat(pre)?;
        self.exec(r, &input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_bexp, parse_program};

    fn universe() -> Universe {
        Universe::new(&[("x", -8, 8), ("y", -8, 8)]).unwrap()
    }

    #[test]
    fn eval_arithmetic_and_booleans() {
        let u = universe();
        let sem = Concrete::new(&u);
        let store = vec![3, -2];
        let a = AExp::var("x").mul(AExp::var("y")).add(AExp::Num(1));
        assert_eq!(sem.eval_aexp(&a, &store).unwrap(), -5);
        let b = parse_bexp("x * y + 1 < 0 && !(y = 0)").unwrap();
        assert!(sem.eval_bexp(&b, &store).unwrap());
    }

    #[test]
    fn unknown_variable_errors() {
        let u = universe();
        let sem = Concrete::new(&u);
        let e = sem.eval_aexp(&AExp::var("z"), &[0, 0]).unwrap_err();
        assert!(matches!(e, SemError::UnknownVar(_)));
        assert!(e.to_string().contains('z'));
    }

    #[test]
    fn overflow_detected() {
        let u = Universe::new(&[("x", i64::MAX - 2, i64::MAX - 1)]).unwrap();
        let sem = Concrete::new(&u);
        let a = AExp::var("x").add(AExp::Num(5));
        assert_eq!(
            sem.eval_aexp(&a, &[i64::MAX - 1]).unwrap_err(),
            SemError::Overflow
        );
    }

    #[test]
    fn assume_filters() {
        let u = universe();
        let sem = Concrete::new(&u);
        let s = u.filter(|st| st[1] == 0);
        let out = sem
            .exec_exp(&Exp::Assume(parse_bexp("x > 0").unwrap()), &s)
            .unwrap();
        assert_eq!(out, u.filter(|st| st[0] > 0 && st[1] == 0));
    }

    #[test]
    fn assignment_moves_states() {
        let u = universe();
        let sem = Concrete::new(&u);
        let s = u.filter(|st| st[0] == 2 && st[1] == 0);
        let out = sem
            .exec_exp(&Exp::assign("x", AExp::var("x").add(1.into())), &s)
            .unwrap();
        assert_eq!(out, u.filter(|st| st[0] == 3 && st[1] == 0));
    }

    #[test]
    fn assignment_escape_drops_store_by_default() {
        let u = universe();
        let sem = Concrete::new(&u);
        let s = u.filter(|st| (st[0] == 8 || st[0] == 0) && st[1] == 0);
        let out = sem
            .exec_exp(&Exp::assign("x", AExp::var("x").add(1.into())), &s)
            .unwrap();
        // x = 8 steps out of range and is dropped; x = 0 survives.
        assert_eq!(out, u.filter(|st| st[0] == 1 && st[1] == 0));
    }

    #[test]
    fn assignment_escape_errors_in_strict_mode() {
        let u = universe();
        let sem = Concrete::strict(&u);
        let s = u.filter(|st| st[0] == 8 && st[1] == 0);
        let err = sem
            .exec_exp(&Exp::assign("x", AExp::var("x").add(1.into())), &s)
            .unwrap_err();
        assert!(matches!(err, SemError::UniverseEscape { value: 9, .. }));
    }

    #[test]
    fn absval_program_semantics() {
        let u = universe();
        let sem = Concrete::new(&u);
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let input = u.filter(|st| st[0] % 2 != 0 && st[1] == 0);
        let out = sem.exec(&prog, &input).unwrap();
        let expected = u.filter(|st| st[0] > 0 && st[0] % 2 != 0 && st[1] == 0);
        assert_eq!(out, expected);
    }

    #[test]
    fn star_computes_reflexive_transitive_closure() {
        let u = universe();
        let sem = Concrete::new(&u);
        // star { assume x < 8; x := x + 1 } from x=0 reaches all 0..=8.
        let prog = parse_program("star { assume x < 8; x := x + 1 }").unwrap();
        let input = u.filter(|st| st[0] == 0 && st[1] == 0);
        let out = sem.exec(&prog, &input).unwrap();
        assert_eq!(out, u.filter(|st| (0..=8).contains(&st[0]) && st[1] == 0));
    }

    #[test]
    fn while_loop_triangular() {
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 20)]).unwrap();
        let sem = Concrete::new(&u);
        let prog =
            parse_program("i := 1; j := 0; while (i <= 5) do { j := j + i; i := i + 1 }").unwrap();
        let out = sem.exec(&prog, &u.full()).unwrap();
        // Terminates with i = 6, j = 15 regardless of initial store.
        assert_eq!(out, u.filter(|st| st[0] == 6 && st[1] == 15));
    }

    #[test]
    fn havoc_ranges_over_the_declared_interval() {
        let u = universe();
        let sem = Concrete::new(&u);
        let s = u.filter(|st| st[0] == 2 && st[1] == 3);
        let out = sem.exec_exp(&Exp::havoc("x"), &s).unwrap();
        assert_eq!(out, u.filter(|st| st[1] == 3));
        // Parsed form.
        let prog = parse_program("x := ?; assume x > 0").unwrap();
        let out2 = sem.exec(&prog, &s).unwrap();
        assert_eq!(out2, u.filter(|st| st[0] > 0 && st[1] == 3));
        assert_eq!(prog.to_string(), "x := ?; (x > 0)?");
    }

    #[test]
    fn choice_unions_branches() {
        let u = universe();
        let sem = Concrete::new(&u);
        let prog = parse_program("either { x := 1 } or { x := 2 }").unwrap();
        let input = u.filter(|st| st[0] == 0 && st[1] == 0);
        let out = sem.exec(&prog, &input).unwrap();
        assert_eq!(out, u.filter(|st| (st[0] == 1 || st[0] == 2) && st[1] == 0));
    }

    #[test]
    fn semantics_is_additive_on_basic_commands() {
        let u = universe();
        let sem = Concrete::new(&u);
        let cmds = [
            Exp::Skip,
            Exp::assign("x", AExp::var("x").add(1.into())),
            Exp::Assume(parse_bexp("x >= y").unwrap()),
        ];
        let s1 = u.filter(|st| st[0] > 2 && st[0] < 7);
        let s2 = u.filter(|st| st[0] < -1);
        for e in &cmds {
            let lhs = sem.exec_exp(e, &s1.union(&s2)).unwrap();
            let rhs = sem
                .exec_exp(e, &s1)
                .unwrap()
                .union(&sem.exec_exp(e, &s2).unwrap());
            assert_eq!(lhs, rhs, "additivity failed for {e}");
        }
    }

    #[test]
    fn exec_from_bexp_convenience() {
        let u = universe();
        let sem = Concrete::new(&u);
        let prog = parse_program("x := x + 1").unwrap();
        let out = sem
            .exec_from_bexp(&prog, &parse_bexp("x = 0").unwrap())
            .unwrap();
        assert_eq!(out, u.filter(|st| st[0] == 1));
    }
}
