//! Concrete collecting semantics `⟦·⟧ : Reg → ℘(Σ) → ℘(Σ)` and weakest
//! liberal preconditions, written once over a set-kernel seam.
//!
//! Basic commands are additive by construction (they are lifted pointwise
//! from stores to state sets), exactly as the paper assumes in Section 3.2;
//! compound commands follow by structural induction, and `wlp` is the
//! right adjoint of each (`⟦r⟧c ≤ z ⇔ c ≤ wlp(r, z)`, Section 5):
//!
//! ```text
//! ⟦skip⟧S   = S                         wlp(e, Z)      per basic command
//! ⟦x := a⟧S = { σ[x ↦ ⟦a⟧σ] | σ ∈ S }
//! ⟦b?⟧S     = { σ ∈ S | ⟦b⟧σ = tt }
//! ⟦r1; r2⟧S = ⟦r2⟧(⟦r1⟧S)               wlp(r1; r2, Z)  = wlp(r1, wlp(r2, Z))
//! ⟦r1 ⊕ r2⟧S = ⟦r1⟧S ∪ ⟦r2⟧S            wlp(r1 ⊕ r2, Z) = wlp(r1, Z) ∩ wlp(r2, Z)
//! ⟦r*⟧S     = lfp(λX. S ∪ ⟦r⟧X)         wlp(r*, Z)      = gfp(λX. Z ∩ wlp(r, X))
//! ```
//!
//! # One recursion, two kernels
//!
//! None of the compound cases depends on how sets are stored. A
//! [`SetKernel`] supplies the rest — the image and `wlp` of each basic
//! command, guard sets, and set operations through [`StoreSet`] — and
//! [`SetKernel::exec_in`]/[`SetKernel::wlp_in`] are the one recursion over
//! it, both Kleene stars included. The bitset kernel is [`Universe`]
//! itself ([`StateSet`] bitsets in its mixed-radix index space); the
//! diagram kernel is [`SymEngine`](crate::SymEngine). The recursion takes
//! an optional [`Memo`] keyed on `(strict, node, set)`: [`NoMemo`], or the
//! tables of a [`SemCache`](crate::SemCache). [`Concrete`] and [`Wlp`] are
//! the bitset kernel's named entry points; [`Wlp::valid_input`] is the
//! greatest valid input `V⟨P, r, Spec⟩ = P ∩ wlp(r, Spec)` of
//! Definition 7.3.
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
//! *validate* that a universe is large enough. `wlp` matches the
//! restricted semantics: a store without successor satisfies every
//! postcondition vacuously.

use std::fmt;
use std::sync::Arc;

use crate::arena::TermId;
use crate::ast::{BExp, Exp, Reg};
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

/// The set operations the semantics and the repair engines perform on
/// stores.
pub trait StoreSet: Clone + Eq + std::hash::Hash {
    /// `self ∩ other`.
    fn intersection(&self, other: &Self) -> Self;
    /// `self ∪ other`.
    fn union(&self, other: &Self) -> Self;
    /// `self ∖ other`.
    fn difference(&self, other: &Self) -> Self;
    /// The stores of the universe not in `self`.
    fn complement(&self) -> Self;
    /// `self ⊆ other`.
    fn is_subset(&self, other: &Self) -> bool;
    /// The number of stores (for trace events).
    fn size(&self) -> usize;
}

impl StoreSet for StateSet {
    fn intersection(&self, other: &Self) -> Self {
        StateSet::intersection(self, other)
    }

    fn union(&self, other: &Self) -> Self {
        StateSet::union(self, other)
    }

    fn difference(&self, other: &Self) -> Self {
        StateSet::difference(self, other)
    }

    fn complement(&self) -> Self {
        StateSet::complement(self)
    }

    fn is_subset(&self, other: &Self) -> bool {
        StateSet::is_subset(self, other)
    }

    fn size(&self) -> usize {
        self.len()
    }
}

/// Where [`SetKernel::exec_in`] and [`SetKernel::wlp_in`] memoize the
/// images of interned program nodes. The provided methods keep nothing.
pub trait Memo<S> {
    /// The structural children of node `t` (a star's body twice; a leaf
    /// names itself).
    fn children(&self, t: TermId) -> (TermId, TermId) {
        (t, t)
    }
    /// `compute()`, unless `⟦t⟧s` in mode `strict` was memoized.
    fn exec<F>(&self, _strict: bool, _t: TermId, _s: &S, compute: F) -> Result<S, SemError>
    where
        F: FnOnce() -> Result<S, SemError>,
    {
        compute()
    }
    /// `compute()`, unless `wlp(t, post)` was memoized.
    fn wlp<F>(&self, _t: TermId, _post: &S, compute: F) -> Result<S, SemError>
    where
        F: FnOnce() -> Result<S, SemError>,
    {
        compute()
    }
}

/// The memo that keeps nothing: the recursion walks the [`Reg`] alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMemo;

impl<S> Memo<S> for NoMemo {}

/// The set-specific half of the concrete semantics over one universe:
/// basic commands and guards on one representation of `℘(Σ)`. The
/// provided methods are the other half, written once.
///
/// Every kernel raises the error of the first failing store in index
/// order, so both kernels fail alike.
pub trait SetKernel: Sized {
    /// Sets of stores.
    type Set: StoreSet;
    /// The universe the sets range over.
    fn universe(&self) -> &Universe;
    /// The image `⟦e⟧s` of a basic command. A store whose successor
    /// leaves the universe is dropped, or raises
    /// [`SemError::UniverseEscape`] when `strict`.
    fn image(&self, strict: bool, e: &Exp, s: &Self::Set) -> Result<Self::Set, SemError>;
    /// `wlp(e, post)` of a basic command (restricted semantics).
    fn wlp_exp(&self, e: &Exp, post: &Self::Set) -> Result<Self::Set, SemError>;
    /// The stores satisfying `b` (the paper's overloading of `b` as
    /// `⟦b?⟧Σ`).
    fn sat(&self, b: &BExp) -> Result<Self::Set, SemError>;

    /// `⟦r⟧s`, memoized in `memo` at every node when `t` is `r`'s
    /// interned id.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from basic commands; stars on a finite
    /// universe always converge.
    fn exec_in<M: Memo<Self::Set>>(
        &self,
        memo: &M,
        strict: bool,
        r: &Reg,
        t: Option<TermId>,
        s: &Self::Set,
    ) -> Result<Self::Set, SemError> {
        let compute = || {
            let (t1, t2) = t.map(|id| memo.children(id)).unzip();
            match r {
                Reg::Basic(e) => self.image(strict, e, s),
                Reg::Seq(r1, r2) => {
                    let mid = self.exec_in(memo, strict, r1, t1, s)?;
                    self.exec_in(memo, strict, r2, t2, &mid)
                }
                Reg::Choice(r1, r2) => Ok(self
                    .exec_in(memo, strict, r1, t1, s)?
                    .union(&self.exec_in(memo, strict, r2, t2, s)?)),
                Reg::Star(body) => {
                    // lfp(λX. s ∪ ⟦body⟧X); strictly increasing, so at
                    // most |Σ| + 1 rounds.
                    let mut acc = s.clone();
                    for _ in 0..=self.universe().size() {
                        let next = acc.union(&self.exec_in(memo, strict, body, t1, &acc)?);
                        if next == acc {
                            return Ok(acc);
                        }
                        acc = next;
                    }
                    Err(SemError::Divergence)
                }
            }
        };
        match t {
            Some(id) => memo.exec(strict, id, s, compute),
            None => compute(),
        }
    }

    /// `wlp(r, post)`, memoized like [`exec_in`](Self::exec_in).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; the gfp converges on finite universes.
    fn wlp_in<M: Memo<Self::Set>>(
        &self,
        memo: &M,
        r: &Reg,
        t: Option<TermId>,
        post: &Self::Set,
    ) -> Result<Self::Set, SemError> {
        let compute = || {
            let (t1, t2) = t.map(|id| memo.children(id)).unzip();
            match r {
                Reg::Basic(e) => self.wlp_exp(e, post),
                Reg::Seq(r1, r2) => {
                    let mid = self.wlp_in(memo, r2, t2, post)?;
                    self.wlp_in(memo, r1, t1, &mid)
                }
                Reg::Choice(r1, r2) => Ok(self
                    .wlp_in(memo, r1, t1, post)?
                    .intersection(&self.wlp_in(memo, r2, t2, post)?)),
                Reg::Star(body) => {
                    // gfp(λX. post ∩ wlp(body, X)) from `post`; strictly
                    // decreasing, so at most |Σ| + 1 rounds.
                    let mut acc = post.clone();
                    for _ in 0..=self.universe().size() {
                        let next = post.intersection(&self.wlp_in(memo, body, t1, &acc)?);
                        if next == acc {
                            return Ok(acc);
                        }
                        acc = next;
                    }
                    Err(SemError::Divergence)
                }
            }
        };
        match t {
            Some(id) => memo.wlp(id, post, compute),
            None => compute(),
        }
    }

    /// `⟦r⟧s`, unmemoized.
    ///
    /// # Errors
    ///
    /// As [`exec_in`](Self::exec_in).
    fn exec(&self, strict: bool, r: &Reg, s: &Self::Set) -> Result<Self::Set, SemError> {
        self.exec_in(&NoMemo, strict, r, None, s)
    }

    /// `wlp(r, post)`, unmemoized.
    ///
    /// # Errors
    ///
    /// As [`wlp_in`](Self::wlp_in).
    fn wlp(&self, r: &Reg, post: &Self::Set) -> Result<Self::Set, SemError> {
        self.wlp_in(&NoMemo, r, None, post)
    }
}

/// The bitset kernel: [`StateSet`]s in the universe's mixed-radix index
/// space. Assignments and havoc work on store indices: the successor of
/// store `i` under `x := v` is `i + (v − σ[x])·stride(x)` once `v` is
/// known to lie in `x`'s range.
impl SetKernel for Universe {
    type Set = StateSet;

    fn universe(&self) -> &Universe {
        self
    }

    fn image(&self, strict: bool, e: &Exp, s: &StateSet) -> Result<StateSet, SemError> {
        match e {
            Exp::Skip => Ok(s.clone()),
            Exp::Assume(b) => {
                let b = ResolvedBExp::new(self, b);
                let mut out = self.empty();
                let mut cursor = self.cursor();
                for i in s.iter() {
                    if b.eval(cursor.seek(i))? {
                        out.insert(i);
                    }
                }
                Ok(out)
            }
            Exp::Havoc(x) => {
                let xi = self.var_slot(x)?;
                let mut out = self.empty();
                if xi + 1 == self.num_vars() {
                    // The fastest variable's fiber is the member's whole
                    // row: fill it in one range insert, then jump to the
                    // first member past it.
                    let row = self.row_len();
                    let mut from = 0;
                    while let Some(i) = s.first_in(from, self.size()) {
                        let base = i - i % row;
                        out.insert_range(base, base + row);
                        from = base + row;
                    }
                    return Ok(out);
                }
                for i in s.iter() {
                    // `i` is in `out` exactly when its fiber already is.
                    if !out.contains(i) {
                        for j in self.fiber(i, xi) {
                            out.insert(j);
                        }
                    }
                }
                Ok(out)
            }
            Exp::Assign(x, a) => {
                let xi = self.var_slot(x)?;
                let a = ResolvedAExp::new(self, a);
                let mut out = self.empty();
                let mut cursor = self.cursor();
                for i in s.iter() {
                    let store = cursor.seek(i);
                    let v = a.eval(store)?;
                    match self.reassign(i, xi, store[xi], v) {
                        Some(j) => {
                            out.insert(j);
                        }
                        None if strict => {
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

    fn wlp_exp(&self, e: &Exp, post: &StateSet) -> Result<StateSet, SemError> {
        match e {
            Exp::Skip => Ok(post.clone()),
            // wlp(b?, z) = ¬b ∪ (b ∩ z) = ¬b ∪ z
            Exp::Assume(b) => Ok(self.sat(b)?.complement().union(post)),
            // wlp(x := ?, z) = {σ | ∀v ∈ range(x). σ[x ↦ v] ∈ z}
            //              = ¬⟦x := ?⟧¬z (no σ[x ↦ v] leaves z)
            Exp::Havoc(_) => Ok(self.image(false, e, &post.complement())?.complement()),
            // wlp(x := a, z) = {σ | σ[x ↦ ⟦a⟧σ] ∈ z}
            Exp::Assign(x, a) => {
                let xi = self.var_slot(x)?;
                let a = ResolvedAExp::new(self, a);
                let mut out = self.empty();
                let mut cursor = self.cursor();
                for i in 0..self.size() {
                    let store = cursor.seek(i);
                    let v = a.eval(store)?;
                    // Restricted semantics: no successor ⇒ vacuously in.
                    if self
                        .reassign(i, xi, store[xi], v)
                        .is_none_or(|j| post.contains(j))
                    {
                        out.insert(i);
                    }
                }
                Ok(out)
            }
        }
    }

    fn sat(&self, b: &BExp) -> Result<StateSet, SemError> {
        let b = ResolvedBExp::new(self, b);
        let mut out = self.empty();
        let mut cursor = self.cursor();
        for i in 0..self.size() {
            if b.eval(cursor.seek(i))? {
                out.insert(i);
            }
        }
        Ok(out)
    }
}

/// The concrete collecting semantics over a fixed universe, in one mode:
/// the bitset kernel's `exec` entry points.
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

    /// The set of all universe stores satisfying `b`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn sat(&self, b: &BExp) -> Result<StateSet, SemError> {
        self.universe.sat(b)
    }

    /// Executes a basic command on a state set ([`SetKernel::image`]).
    ///
    /// # Errors
    ///
    /// Evaluation errors; in [`Concrete::strict`] mode additionally
    /// [`SemError::UniverseEscape`] if an assignment leaves the universe.
    pub fn exec_exp(&self, e: &Exp, s: &StateSet) -> Result<StateSet, SemError> {
        self.universe.image(self.strict, e, s)
    }

    /// Executes a regular command on a state set — the collecting semantics
    /// `⟦r⟧S`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from basic commands.
    pub fn exec(&self, r: &Reg, s: &StateSet) -> Result<StateSet, SemError> {
        SetKernel::exec(self.universe, self.strict, r, s)
    }
}

/// Weakest liberal preconditions over a universe: the bitset kernel's
/// `wlp` entry points. For an additive `f`, `wlp(f, z) = ∨{x | f(x) ≤ z}`
/// (paper, Section 5); a store whose successor escapes the universe is
/// in every wlp.
///
/// # Example
///
/// ```
/// use air_lang::{parse_program, Universe, Wlp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", 0, 9)])?;
/// let wlp = Wlp::new(&u);
/// let prog = parse_program("x := x + 1")?;
/// let post = u.filter(|s| s[0] >= 5);
/// // x+1 ≥ 5 ⇔ x ≥ 4 (x = 9 escapes the universe, hence is vacuously in).
/// assert_eq!(wlp.reg(&prog, &post)?, u.filter(|s| s[0] >= 4));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Wlp<'u> {
    universe: &'u Universe,
}

impl<'u> Wlp<'u> {
    /// Creates the wlp transformer for a universe.
    pub fn new(universe: &'u Universe) -> Self {
        Wlp { universe }
    }

    /// The underlying universe.
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// wlp of a basic command ([`SetKernel::wlp_exp`]).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors ([`SemError::UnknownVar`],
    /// [`SemError::Overflow`]).
    pub fn exp(&self, e: &Exp, post: &StateSet) -> Result<StateSet, SemError> {
        self.universe.wlp_exp(e, post)
    }

    /// wlp of a regular command ([`SetKernel::wlp`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; the gfp converges on finite universes.
    pub fn reg(&self, r: &Reg, post: &StateSet) -> Result<StateSet, SemError> {
        self.universe.wlp(r, post)
    }

    /// The greatest valid input `V⟨P, r, Spec⟩ = ∨{P' ≤ P | ⟦r⟧P' ≤ Spec}`
    /// of Definition 7.3, computed as `P ∩ wlp(⟦r⟧, Spec)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn valid_input(
        &self,
        pre: &StateSet,
        r: &Reg,
        spec: &StateSet,
    ) -> Result<StateSet, SemError> {
        Ok(pre.intersection(&self.reg(r, spec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AExp;
    use crate::parser::{parse_bexp, parse_program};

    fn universe() -> Universe {
        Universe::new(&[("x", -8, 8), ("y", -8, 8)]).unwrap()
    }

    #[test]
    fn unknown_variable_errors() {
        let u = universe();
        let sem = Concrete::new(&u);
        let e = sem
            .exec_exp(&Exp::assign("x", AExp::var("z")), &u.full())
            .unwrap_err();
        assert!(matches!(e, SemError::UnknownVar(_)));
        assert!(e.to_string().contains('z'));
        assert!(sem.sat(&parse_bexp("z > 0").unwrap()).is_err());
    }

    #[test]
    fn overflow_detected() {
        let u = Universe::new(&[("x", i64::MAX - 2, i64::MAX - 1)]).unwrap();
        let sem = Concrete::new(&u);
        let e = Exp::assign("x", AExp::var("x").add(AExp::Num(5)));
        assert_eq!(sem.exec_exp(&e, &u.full()), Err(SemError::Overflow));
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

    fn nonneg_universe() -> Universe {
        Universe::new(&[("x", 0, 9), ("y", 0, 9)]).unwrap()
    }

    #[test]
    fn wlp_skip_is_identity() {
        let u = nonneg_universe();
        let w = Wlp::new(&u);
        let post = u.filter(|s| s[0] == 3);
        assert_eq!(w.exp(&Exp::Skip, &post).unwrap(), post);
    }

    #[test]
    fn wlp_guard_matches_definition() {
        let u = nonneg_universe();
        let w = Wlp::new(&u);
        let post = u.filter(|s| s[0] >= 5);
        let b = parse_bexp("x > 2").unwrap();
        let got = w.exp(&Exp::Assume(b), &post).unwrap();
        // ¬(x>2) ∪ (x ≥ 5)
        assert_eq!(got, u.filter(|s| s[0] <= 2 || s[0] >= 5));
    }

    #[test]
    fn wlp_assignment() {
        let u = nonneg_universe();
        let w = Wlp::new(&u);
        let post = u.filter(|s| s[0] == s[1]);
        let e = Exp::assign("x", AExp::var("y"));
        assert_eq!(w.exp(&e, &post).unwrap(), u.full());
        let e2 = Exp::assign("x", AExp::var("x").add(1.into()));
        let got = w.exp(&e2, &post).unwrap();
        // x = 9 escapes, hence is vacuously safe.
        assert_eq!(got, u.filter(|s| s[0] + 1 == s[1] || s[0] == 9));
    }

    #[test]
    fn wlp_includes_escaping_stores_vacuously() {
        let u = nonneg_universe();
        let w = Wlp::new(&u);
        let e = Exp::assign("x", AExp::var("x").add(1.into()));
        // Even against the empty postcondition, x = 9 has no behaviour.
        let got = w.exp(&e, &u.empty()).unwrap();
        assert_eq!(got, u.filter(|s| s[0] == 9));
    }

    /// The adjunction `⟦r⟧P ≤ Z ⇔ P ≤ wlp(r, Z)` checked exhaustively on a
    /// small program and randomized-ish sets.
    #[test]
    fn wlp_galois_adjunction_with_exec() {
        let u = Universe::new(&[("x", 0, 5)]).unwrap();
        let w = Wlp::new(&u);
        let sem = Concrete::new(&u);
        let prog = parse_program("if (x < 5) then { x := x + 1 } else { skip }").unwrap();
        let sets: Vec<StateSet> = vec![
            u.empty(),
            u.full(),
            u.of_values([0, 2]),
            u.of_values([5]),
            u.of_values([1, 3, 4]),
        ];
        for p in &sets {
            for z in &sets {
                let lhs = sem.exec(&prog, p).unwrap().is_subset(z);
                let rhs = p.is_subset(&w.reg(&prog, z).unwrap());
                assert_eq!(lhs, rhs, "adjunction failed for P={p:?}, Z={z:?}");
            }
        }
    }

    #[test]
    fn wlp_of_star_is_gfp() {
        let u = Universe::new(&[("x", 0, 9)]).unwrap();
        let w = Wlp::new(&u);
        // star { assume x < 9; x := x + 1 } : from x, all of x..9 reachable.
        let prog = parse_program("star { assume x < 9; x := x + 1 }").unwrap();
        let post = u.filter(|s| s[0] <= 6);
        // Any start ≤ 6 can still step to 7, violating post ⇒ wlp = ∅...
        // except states where iteration cannot exceed 6 — none, since x<9
        // allows growth past 6. Only stores already violating post are out.
        assert_eq!(w.reg(&prog, &post).unwrap(), u.empty());
        // With post = everything reachable, wlp is the full set.
        assert_eq!(w.reg(&prog, &u.full()).unwrap(), u.full());
    }

    #[test]
    fn valid_input_is_definition_7_3() {
        let u = nonneg_universe();
        let w = Wlp::new(&u);
        let sem = Concrete::new(&u);
        let prog = parse_program("x := x + y").unwrap();
        let pre = u.filter(|s| s[0] <= 4);
        let spec = u.filter(|s| s[0] <= 6);
        let v = w.valid_input(&pre, &prog, &spec).unwrap();
        // V is the largest P' ≤ pre with exec(P') ⊆ spec.
        assert!(sem.exec(&prog, &v).unwrap().is_subset(&spec));
        assert!(v.is_subset(&pre));
        // maximality: adding any other pre-state breaks the spec
        for i in pre.difference(&v).iter() {
            let mut bigger = v.clone();
            bigger.insert(i);
            assert!(!sem
                .exec(&prog, &bigger)
                .unwrap_or(u.full())
                .is_subset(&spec));
        }
    }

    #[test]
    fn wlp_havoc_is_universal() {
        let u = nonneg_universe();
        let w = Wlp::new(&u);
        // wlp(y := ?, x ≤ y) requires x ≤ min(range y) = 0... only x = 0
        // survives ∀y ∈ [0,9]. x ≤ y ⇔ x ≤ 0.
        let post = u.filter(|s| s[0] <= s[1]);
        let got = w.exp(&Exp::havoc("y"), &post).unwrap();
        assert_eq!(got, u.filter(|s| s[0] == 0));
        // Against ⊤ everything is safe; against ⊥ nothing is.
        assert_eq!(w.exp(&Exp::havoc("y"), &u.full()).unwrap(), u.full());
        assert_eq!(w.exp(&Exp::havoc("y"), &u.empty()).unwrap(), u.empty());
        // The adjunction holds for havoc too.
        let sem = Concrete::new(&u);
        let p = u.filter(|s| s[0] == 0 && s[1] == 5);
        assert!(sem.exec_exp(&Exp::havoc("y"), &p).unwrap().is_subset(&post));
        assert!(p.is_subset(&got));
    }

    #[test]
    fn wlp_choice_is_meet() {
        let u = nonneg_universe();
        let w = Wlp::new(&u);
        let prog = parse_program("either { x := x + 1 } or { x := x - 1 }").unwrap();
        let post = u.filter(|s| s[0] >= 3 && s[0] <= 7);
        let got = w.reg(&prog, &post).unwrap();
        assert_eq!(got, u.filter(|s| s[0] >= 4 && s[0] <= 6));
    }
}
