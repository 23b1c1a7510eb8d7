//! Program stores and finite universes.
//!
//! A *store* `σ : V → ℤ` assigns values to the program's variables; the
//! concrete domain is `℘(Σ)` where `Σ` is the set of all stores. The
//! enumerative repair engine (like the paper's pilot implementation,
//! Section 8) works on a *finite* slice of `Σ`: a [`Universe`] fixes, for
//! each variable, a bounded integer range, and enumerates all stores in the
//! resulting box. State sets are bitsets over store indices.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use air_lattice::bitset::BitVecSet;

use crate::semantics::SemError;

/// A program store: one `i64` value per universe variable, in universe
/// variable order.
pub type Store = Vec<i64>;

/// A set of universe stores, as a bitset over store indices.
///
/// `StateSet` is the concrete complete lattice `℘(Σ)` of the paper:
/// `∪`/`∩`/`⊆` are [`BitVecSet::union`], [`BitVecSet::intersection`] and
/// [`BitVecSet::is_subset`].
pub type StateSet = BitVecSet;

/// Errors from universe construction and store indexing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UniverseError {
    /// A variable was declared twice.
    DuplicateVar(String),
    /// A variable range was empty (`lo > hi`).
    EmptyRange {
        /// The offending variable.
        var: String,
        /// Declared lower bound.
        lo: i64,
        /// Declared upper bound.
        hi: i64,
    },
    /// The universe would contain more than [`Universe::MAX_SIZE`] stores.
    TooLarge {
        /// The number of stores the declaration implies.
        size: u128,
    },
    /// No variables were declared.
    NoVars,
}

impl fmt::Display for UniverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniverseError::DuplicateVar(v) => write!(f, "duplicate variable `{v}`"),
            UniverseError::EmptyRange { var, lo, hi } => {
                write!(f, "empty range [{lo}, {hi}] for variable `{var}`")
            }
            UniverseError::TooLarge { size } => {
                write!(
                    f,
                    "universe has {size} stores, exceeding the {} cap",
                    Universe::MAX_SIZE
                )
            }
            UniverseError::NoVars => write!(f, "universe must declare at least one variable"),
        }
    }
}

impl std::error::Error for UniverseError {}

#[derive(Clone, Debug)]
struct VarInfo {
    name: Arc<str>,
    lo: i64,
    hi: i64,
}

/// A finite universe of stores: each declared variable ranges over a
/// bounded integer interval, and the universe is the Cartesian product.
///
/// Stores are indexed in mixed-radix order (last variable varies fastest),
/// so `℘(Σ)` is represented as a [`BitVecSet`] of capacity [`Universe::size`].
///
/// # Example
///
/// ```
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -2, 2), ("y", 0, 1)])?;
/// assert_eq!(u.size(), 10);
/// let evens = u.filter(|s| s[0] % 2 == 0);
/// assert_eq!(evens.len(), 6); // x ∈ {-2, 0, 2}, y ∈ {0, 1}
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Universe {
    /// All universe data sits behind one `Arc`: a universe is immutable
    /// after construction and is cloned into every domain, engine and
    /// warm-cache entry, so `clone()` must be a reference bump, not a
    /// deep copy of the variable table and its `HashMap`.
    inner: Arc<UniverseInner>,
}

#[derive(Debug)]
struct UniverseInner {
    vars: Vec<VarInfo>,
    index: HashMap<Arc<str>, usize>,
    /// Mixed-radix strides: `strides[i]` = product of later ranges.
    strides: Vec<usize>,
    size: usize,
}

impl Universe {
    /// The largest store count a universe may have; guards against
    /// accidental combinatorial explosions.
    pub const MAX_SIZE: usize = 1 << 24;

    /// Declares a universe from `(name, lo, hi)` triples.
    ///
    /// # Errors
    ///
    /// Returns an error on duplicate variables, empty ranges, an empty
    /// declaration list, or a universe larger than [`Self::MAX_SIZE`].
    pub fn new(decls: &[(&str, i64, i64)]) -> Result<Universe, UniverseError> {
        if decls.is_empty() {
            return Err(UniverseError::NoVars);
        }
        let mut vars = Vec::with_capacity(decls.len());
        let mut index = HashMap::with_capacity(decls.len());
        let mut size: u128 = 1;
        for &(name, lo, hi) in decls {
            if lo > hi {
                return Err(UniverseError::EmptyRange {
                    var: name.to_owned(),
                    lo,
                    hi,
                });
            }
            let name: Arc<str> = Arc::from(name);
            if index.insert(name.clone(), vars.len()).is_some() {
                return Err(UniverseError::DuplicateVar(name.to_string()));
            }
            size = size.saturating_mul((hi - lo + 1) as u128);
            vars.push(VarInfo { name, lo, hi });
        }
        if size > Self::MAX_SIZE as u128 {
            return Err(UniverseError::TooLarge { size });
        }
        let size = size as usize;
        let mut strides = vec![1usize; vars.len()];
        for i in (0..vars.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * (vars[i + 1].hi - vars[i + 1].lo + 1) as usize;
        }
        Ok(Universe {
            inner: Arc::new(UniverseInner {
                vars,
                index,
                strides,
                size,
            }),
        })
    }

    /// Number of stores in the universe.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The number of stores in one *row*: a run of consecutive indices
    /// whose stores differ only in the last variable, which varies fastest
    /// in the mixed-radix layout. Row `r` spans the indices
    /// `r·row_len .. (r+1)·row_len`, the last variable ascending from its
    /// lower bound.
    pub fn row_len(&self) -> usize {
        let last = self.inner.vars.last().expect("a universe has a variable");
        (last.hi - last.lo + 1) as usize
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.inner.vars.len()
    }

    /// The declared variable names, in declaration order.
    pub fn var_names(&self) -> impl Iterator<Item = &str> {
        self.inner.vars.iter().map(|v| &*v.name)
    }

    /// Index of a variable in store order, if declared.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.inner.index.get(name).copied()
    }

    /// Index of the variable `x`, or [`SemError::UnknownVar`].
    pub(crate) fn var_slot(&self, x: &Arc<str>) -> Result<usize, SemError> {
        self.var_index(x)
            .ok_or_else(|| SemError::UnknownVar(x.clone()))
    }

    /// Declared range `[lo, hi]` of the `i`-th variable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn var_range(&self, i: usize) -> (i64, i64) {
        (self.inner.vars[i].lo, self.inner.vars[i].hi)
    }

    /// Returns `true` if `store` lies inside every declared range.
    pub fn contains_store(&self, store: &[i64]) -> bool {
        store.len() == self.inner.vars.len()
            && self
                .inner
                .vars
                .iter()
                .zip(store)
                .all(|(v, &x)| v.lo <= x && x <= v.hi)
    }

    /// The index of an in-range store, or `None` if it escapes the universe.
    pub fn store_index(&self, store: &[i64]) -> Option<usize> {
        if !self.contains_store(store) {
            return None;
        }
        let mut idx = 0;
        for (i, (v, &x)) in self.inner.vars.iter().zip(store).enumerate() {
            idx += (x - v.lo) as usize * self.inner.strides[i];
        }
        Some(idx)
    }

    /// The index of the store at `idx` after variable `var` changes from
    /// `old` (its value there) to `new`, or `None` when `new` leaves the
    /// variable's range: one range check and a stride delta, no re-encode.
    #[inline]
    pub(crate) fn reassign(&self, idx: usize, var: usize, old: i64, new: i64) -> Option<usize> {
        let v = &self.inner.vars[var];
        if new < v.lo || new > v.hi {
            return None;
        }
        // Both values lie in the range, so `new - old` and the product stay
        // below MAX_SIZE in magnitude.
        Some((idx as i64 + (new - old) * self.inner.strides[var] as i64) as usize)
    }

    /// The indices of `{σ[var ↦ v] | v ∈ range(var)}` for the store `σ` at
    /// `idx`, ascending: the `idx`-th store's fiber along `var`.
    pub(crate) fn fiber(&self, idx: usize, var: usize) -> impl Iterator<Item = usize> {
        let v = &self.inner.vars[var];
        let stride = self.inner.strides[var];
        let span = stride * (v.hi - v.lo + 1) as usize;
        let base = idx - idx % span + idx % stride;
        (base..base + span).step_by(stride)
    }

    /// The store at a given index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= size()`.
    pub fn store_at(&self, idx: usize) -> Store {
        let mut store = vec![0; self.inner.vars.len()];
        self.decode_into(idx, &mut store);
        store
    }

    /// Decodes the store at `idx` into `buf` (one slot per variable),
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= size()`.
    fn decode_into(&self, idx: usize, buf: &mut [i64]) {
        assert!(
            idx < self.inner.size,
            "store index {idx} out of universe size {}",
            self.inner.size
        );
        let mut rem = idx;
        for ((slot, v), &stride) in buf
            .iter_mut()
            .zip(&self.inner.vars)
            .zip(&self.inner.strides)
        {
            *slot = v.lo + (rem / stride) as i64;
            rem %= stride;
        }
    }

    /// A reusable store buffer for per-store loops; see [`StoreCursor`].
    pub fn cursor(&self) -> StoreCursor<'_> {
        StoreCursor {
            universe: self,
            next: usize::MAX,
            store: vec![0; self.inner.vars.len()],
        }
    }

    /// The empty state set `⊥ = ∅`.
    pub fn empty(&self) -> StateSet {
        BitVecSet::new(self.inner.size)
    }

    /// The full state set `⊤ = Σ`.
    pub fn full(&self) -> StateSet {
        BitVecSet::full(self.inner.size)
    }

    /// The set of stores satisfying a predicate.
    pub fn filter(&self, mut pred: impl FnMut(&[i64]) -> bool) -> StateSet {
        let mut set = self.empty();
        let mut cursor = self.cursor();
        for i in 0..self.inner.size {
            if pred(cursor.seek(i)) {
                set.insert(i);
            }
        }
        set
    }

    /// Builds a state set from explicit stores.
    ///
    /// # Errors
    ///
    /// Returns the first store that is not in the universe.
    pub fn state_set<'a, I>(&self, stores: I) -> Result<StateSet, Store>
    where
        I: IntoIterator<Item = &'a [i64]>,
    {
        let mut set = self.empty();
        for s in stores {
            match self.store_index(s) {
                Some(i) => {
                    set.insert(i);
                }
                None => return Err(s.to_vec()),
            }
        }
        Ok(set)
    }

    /// A one-variable convenience: the set of stores where the single
    /// declared variable takes one of the given values (values outside the
    /// range are ignored).
    ///
    /// # Panics
    ///
    /// Panics if the universe has more than one variable.
    pub fn of_values<I: IntoIterator<Item = i64>>(&self, values: I) -> StateSet {
        assert_eq!(
            self.inner.vars.len(),
            1,
            "of_values requires a single-variable universe"
        );
        let mut set = self.empty();
        for v in values {
            if let Some(i) = self.store_index(&[v]) {
                set.insert(i);
            }
        }
        set
    }

    /// Renders a store as `x=1, y=2`.
    pub fn display_store(&self, store: &[i64]) -> String {
        self.inner
            .vars
            .iter()
            .zip(store)
            .map(|(v, x)| format!("{}={}", v.name, x))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A store buffer that walks a universe by index without allocating.
///
/// [`StoreCursor::seek`] moves to an index: to the index right after the
/// previous one by an odometer step (the last variable varies fastest, so
/// one increment plus an occasional carry), to any other index by a
/// decode into the same buffer. Full-universe loops (`0..size`) therefore
/// never divide, and sparse loops over a set's members pay one decode per
/// gap.
#[derive(Debug)]
pub struct StoreCursor<'u> {
    universe: &'u Universe,
    /// The index after the current one (`usize::MAX` before the first seek).
    next: usize,
    store: Store,
}

impl StoreCursor<'_> {
    /// Positions the cursor at `idx` and returns that store.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= size()`.
    #[inline]
    pub fn seek(&mut self, idx: usize) -> &[i64] {
        if idx == self.next {
            assert!(idx < self.universe.size(), "store index {idx} out of range");
            for (x, v) in self.store.iter_mut().zip(&self.universe.inner.vars).rev() {
                if *x < v.hi {
                    *x += 1;
                    break;
                }
                *x = v.lo;
            }
        } else {
            self.universe.decode_into(idx, &mut self.store);
        }
        self.next = idx + 1;
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_size_and_indexing_roundtrip() {
        let u = Universe::new(&[("x", -3, 3), ("y", 0, 4)]).unwrap();
        assert_eq!(u.size(), 35);
        let mut cursor = u.cursor();
        for i in 0..u.size() {
            let s = u.store_at(i);
            assert_eq!(u.store_index(&s), Some(i));
            assert!(u.contains_store(&s));
            assert_eq!(cursor.seek(i), &s[..], "odometer step at {i}");
        }
        // Sparse seeks decode, and stepping resumes after a jump.
        for i in [30, 7, 8, 9, 34, 0, 1] {
            assert_eq!(cursor.seek(i), &u.store_at(i)[..], "seek to {i}");
        }
    }

    #[test]
    fn out_of_range_stores_have_no_index() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        assert_eq!(u.store_index(&[4]), None);
        assert_eq!(u.store_index(&[-1]), None);
        assert_eq!(u.store_index(&[0, 0]), None); // wrong arity
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(Universe::new(&[]), Err(UniverseError::NoVars)));
        assert!(matches!(
            Universe::new(&[("x", 2, 1)]),
            Err(UniverseError::EmptyRange { .. })
        ));
        assert!(matches!(
            Universe::new(&[("x", 0, 1), ("x", 0, 1)]),
            Err(UniverseError::DuplicateVar(_))
        ));
        assert!(matches!(
            Universe::new(&[("x", 0, i64::MAX - 1)]),
            Err(UniverseError::TooLarge { .. })
        ));
    }

    #[test]
    fn filter_and_of_values() {
        let u = Universe::new(&[("x", -5, 5)]).unwrap();
        let odds = u.filter(|s| s[0].rem_euclid(2) == 1);
        assert_eq!(odds.len(), 6); // -5, -3, -1, 1, 3, 5
        let odd_vals: Vec<i64> = odds.iter().map(|i| u.store_at(i)[0]).collect();
        assert_eq!(odd_vals, vec![-5, -3, -1, 1, 3, 5]);
        let some = u.of_values([0, 2, 99]);
        assert_eq!(some.len(), 2); // 99 silently out of range
    }

    #[test]
    fn var_metadata() {
        let u = Universe::new(&[("a", 0, 1), ("b", 2, 3)]).unwrap();
        assert_eq!(u.num_vars(), 2);
        assert_eq!(u.var_index("b"), Some(1));
        assert_eq!(u.var_index("c"), None);
        assert_eq!(u.var_range(1), (2, 3));
        assert_eq!(u.var_names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(u.display_store(&[0, 3]), "a=0, b=3");
    }

    #[test]
    fn rows_are_runs_of_the_last_variable() {
        let u = Universe::new(&[("a", -1, 1), ("b", 2, 5)]).unwrap();
        assert_eq!(u.row_len(), 4);
        for i in 0..u.size() {
            let (row, col) = (i / u.row_len(), i % u.row_len());
            let s = u.store_at(i);
            assert_eq!(s[0], -1 + row as i64);
            assert_eq!(s[1], 2 + col as i64);
        }
        assert_eq!(Universe::new(&[("x", 0, 9)]).unwrap().row_len(), 10);
    }

    #[test]
    fn state_set_from_stores() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        let s = u.state_set([&[1][..], &[3][..]]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(u.state_set([&[9][..]]), Err(vec![9]));
    }

    #[test]
    fn empty_and_full() {
        let u = Universe::new(&[("x", 0, 9)]).unwrap();
        assert!(u.empty().is_empty());
        assert_eq!(u.full().len(), 10);
    }
}
