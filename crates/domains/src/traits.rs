//! Store-abstraction traits.
//!
//! [`Abstraction`] is the Galois-insertion view of an abstract domain over
//! program stores: it provides `α` on single stores (extended additively to
//! state sets by [`Abstraction::alpha_set`]) and a membership test for `γ`.
//! The enumerative AIR engine in `air-core` needs nothing more — it
//! enumerates `γ` over a finite universe exactly like the paper's pilot
//! implementation.
//!
//! Both enumerations work a *row* at a time: the stores that differ only in
//! the universe's last variable, which are consecutive indices
//! ([`Universe::row_len`]). [`Abstraction::gamma_row`] answers one row as
//! runs of last-variable values, so `gamma_set` fills each run with one
//! word-level [`insert_range`](air_lattice::bitset::BitVecSet::insert_range);
//! domains whose rows have a closed form override it.

use std::fmt;

use air_lang::{StateSet, Universe};

/// An abstract domain of program-store properties, presented by `α`/`γ`.
///
/// Implementations must form a Galois insertion with `℘(Σ)`:
/// `alpha_set` must be additive over stores, `gamma_contains` must be
/// monotone in the element, and `α(γ(a)) = a` for elements reachable from
/// `alpha_set`. These laws are exercised by shared tests via finite
/// universes.
pub trait Abstraction {
    /// Abstract elements.
    type Elem: Clone + PartialEq + fmt::Debug;

    /// Short human-readable domain name (e.g. `"Int"`, `"Oct"`).
    fn name(&self) -> &str;

    /// The greatest element `⊤` (all stores).
    fn top(&self) -> Self::Elem;

    /// The least element `⊥` (no store).
    fn bottom(&self) -> Self::Elem;

    /// Returns `true` if `e` denotes the empty set of stores.
    fn is_bottom(&self, e: &Self::Elem) -> bool;

    /// Abstract order.
    fn leq(&self, a: &Self::Elem, b: &Self::Elem) -> bool;

    /// Abstract join (least upper bound).
    fn join(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Widening; defaults to join (correct for finite-height domains).
    fn widen(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.join(a, b)
    }

    /// Abstraction of a single store.
    fn alpha_store(&self, store: &[i64]) -> Self::Elem;

    /// `acc ← acc ⊔ α({store})`, in place. The default builds
    /// [`alpha_store`](Self::alpha_store) and calls [`join`](Self::join);
    /// an override must leave exactly what that leaves, and may skip the
    /// two allocations.
    fn join_store(&self, acc: &mut Self::Elem, store: &[i64]) {
        *acc = self.join(acc, &self.alpha_store(store));
    }

    /// Membership test for the concretization: `store ∈ γ(e)`.
    fn gamma_contains(&self, e: &Self::Elem, store: &[i64]) -> bool;

    /// One row of the concretization: overwrites `runs` with the maximal
    /// runs `(a, b)` (inclusive, ascending, disjoint and not adjacent) of
    /// the values `v ∈ [lo, hi]` for which `store[..n-1] ++ [v] ∈ γ(e)`,
    /// where `n = store.len()` and `[lo, hi]` is the last variable's range.
    ///
    /// The last slot of `store` is scratch: the default writes every `v`
    /// there in turn and tests it with [`gamma_contains`](Self::gamma_contains)
    /// ([`gamma_row_scan`]). An override must return exactly what that scan
    /// returns, for every element, including widened ones.
    fn gamma_row(
        &self,
        e: &Self::Elem,
        store: &mut [i64],
        lo: i64,
        hi: i64,
        runs: &mut Vec<(i64, i64)>,
    ) {
        gamma_row_scan(self, e, store, lo, hi, runs);
    }

    /// `true` when [`gamma_row`](Self::gamma_row) is a closed form (about
    /// the cost of one `gamma_contains`, not one per store of the row) on
    /// `universe`'s rows and `γ(e)` meets every row in at most one run —
    /// it is *row-convex* — for every `e` that `alpha_set` can build over
    /// `universe`. Such a domain lets `alpha_set` join only the first and
    /// last member of each row.
    fn convex_rows(&self, universe: &Universe) -> bool {
        let _ = universe;
        false
    }

    /// Additive abstraction of a state set: `α(S) = ∨{α({σ}) | σ ∈ S}`.
    ///
    /// A store already covered by the running join is skipped: in a
    /// Galois insertion `α({σ}) ≤ acc ⇔ σ ∈ γ(acc)`, and the least upper
    /// bound of `acc` and an element below it is `acc` itself. A domain
    /// whose `join` is not the exact least upper bound (so joining a
    /// covered store may still rewrite `acc`) must override this with
    /// [`alpha_fold`].
    ///
    /// With [`convex_rows`](Self::convex_rows), each row's members are
    /// found by two word scans, and only the row's first and last member
    /// are tested (by one [`gamma_row`](Self::gamma_row) of `acc`) and
    /// joined: once both lie in `γ(acc)`, a row-convex `γ` holds every
    /// store between them, so every member in between is covered and
    /// skipped. The exact least upper bound does not depend on the order
    /// of the joins, so the result is the fold's, element for element.
    /// Other domains test every member.
    fn alpha_set(&self, universe: &Universe, set: &StateSet) -> Self::Elem {
        let mut acc = self.bottom();
        let mut cursor = universe.cursor();
        if !self.convex_rows(universe) {
            for i in set.iter() {
                let store = cursor.seek(i);
                if !self.gamma_contains(&acc, store) {
                    self.join_store(&mut acc, store);
                }
            }
            return acc;
        }
        let (row, size) = (universe.row_len(), universe.size());
        let last_var = universe.num_vars() - 1;
        let (lo, hi) = universe.var_range(last_var);
        let (mut stack, mut heap) = ([0; STACK_VARS], Vec::new());
        let store = store_buf(last_var + 1, &mut stack, &mut heap);
        let mut runs = Vec::with_capacity(1);
        let (mut from, mut prefix_row) = (0, None);
        while let Some(first) = set.first_in(from, size) {
            let base = first - first % row;
            from = base + row;
            let last = set.last_in(first, from).expect("`first` is in the row");
            if prefix_row.is_some_and(|p| p + row == base) {
                next_row(universe, store);
            } else {
                store.copy_from_slice(cursor.seek(first));
            }
            prefix_row = Some(base);
            let (vf, vl) = (lo + (first - base) as i64, lo + (last - base) as i64);
            // One closed-form row answers both coverage tests: `γ(acc)`
            // meets the row in at most one run.
            self.gamma_row(&acc, store, lo, hi, &mut runs);
            let covers = |runs: &[(i64, i64)], v: i64| runs.iter().any(|&(a, b)| a <= v && v <= b);
            let mut last_covered = covers(&runs, vl);
            if !covers(&runs, vf) {
                store[last_var] = vf;
                self.join_store(&mut acc, store);
                if !last_covered {
                    store[last_var] = vl;
                    last_covered = first == last || self.gamma_contains(&acc, store);
                }
            }
            if !last_covered {
                store[last_var] = vl;
                self.join_store(&mut acc, store);
            }
            debug_assert!(
                {
                    self.gamma_row(&acc, store, lo, hi, &mut runs);
                    runs.iter().any(|&(a, b)| a <= vf && vl <= b)
                },
                "{}: γ is not row-convex",
                self.name()
            );
        }
        acc
    }

    /// Enumerated concretization over a universe: `γ(e)` as a state set,
    /// one [`gamma_row`](Self::gamma_row) per row and one
    /// [`insert_range`](air_lattice::bitset::BitVecSet::insert_range) per
    /// run.
    fn gamma_set(&self, universe: &Universe, e: &Self::Elem) -> StateSet {
        let mut set = universe.empty();
        let row = universe.row_len();
        let last_var = universe.num_vars() - 1;
        let (lo, hi) = universe.var_range(last_var);
        let (mut stack, mut heap) = ([0; STACK_VARS], Vec::new());
        let store = store_buf(last_var + 1, &mut stack, &mut heap);
        for (k, x) in store.iter_mut().enumerate() {
            *x = universe.var_range(k).0;
        }
        // A row holds at most `⌈row / 2⌉` maximal runs: reserve them once.
        let mut runs = Vec::with_capacity(row.div_ceil(2));
        for base in (0..universe.size()).step_by(row) {
            self.gamma_row(e, store, lo, hi, &mut runs);
            for &(a, b) in &runs {
                set.insert_range(base + (a - lo) as usize, base + (b - lo) as usize + 1);
            }
            next_row(universe, store);
        }
        set
    }

    /// The induced closure on state sets: `A(S) = γ(α(S))`, enumerated.
    fn closure_set(&self, universe: &Universe, set: &StateSet) -> StateSet {
        self.gamma_set(universe, &self.alpha_set(universe, set))
    }
}

/// The plain additive fold `α(S) = ⊥ ⊔ α({σ₁}) ⊔ … ⊔ α({σₙ})`, joining
/// every store in index order: the `alpha_set` of domains whose `join` is
/// not the exact least upper bound.
pub fn alpha_fold<A: Abstraction + ?Sized>(
    dom: &A,
    universe: &Universe,
    set: &StateSet,
) -> A::Elem {
    let mut acc = dom.bottom();
    let mut cursor = universe.cursor();
    for i in set.iter() {
        acc = dom.join(&acc, &dom.alpha_store(cursor.seek(i)));
    }
    acc
}

/// Universes of up to this many variables get their row store buffer on
/// the stack: the closure runs on every cache miss, often over a handful
/// of stores, where an allocation would cost as much as the scan.
const STACK_VARS: usize = 16;

/// A zeroed store buffer of `n` slots: the front of `stack` when it fits,
/// `heap` otherwise.
fn store_buf<'a>(
    n: usize,
    stack: &'a mut [i64; STACK_VARS],
    heap: &'a mut Vec<i64>,
) -> &'a mut [i64] {
    if n <= STACK_VARS {
        &mut stack[..n]
    } else {
        heap.resize(n, 0);
        heap
    }
}

/// Steps the row prefix of `store` (every slot but the last) to the next
/// row's, odometer-style; past the last row it wraps to the first.
fn next_row(universe: &Universe, store: &mut [i64]) {
    let last = store.len() - 1;
    for (k, x) in store[..last].iter_mut().enumerate().rev() {
        let (lo, hi) = universe.var_range(k);
        if *x < hi {
            *x += 1;
            return;
        }
        *x = lo;
    }
}

/// The default [`Abstraction::gamma_row`]: scans the row with
/// `gamma_contains`, writing each last-variable value into `store`'s last
/// slot, and gathers the members into maximal runs.
pub fn gamma_row_scan<A: Abstraction + ?Sized>(
    dom: &A,
    e: &A::Elem,
    store: &mut [i64],
    lo: i64,
    hi: i64,
    runs: &mut Vec<(i64, i64)>,
) {
    runs.clear();
    let last = store.len() - 1;
    for v in lo..=hi {
        store[last] = v;
        if dom.gamma_contains(e, store) {
            push_run_value(runs, v);
        }
    }
}

/// Adds `v`, larger than every value already in `runs`, extending the last
/// run when `v` is adjacent to it.
pub(crate) fn push_run_value(runs: &mut Vec<(i64, i64)>, v: i64) {
    match runs.last_mut() {
        Some((_, b)) if *b + 1 == v => *b = v,
        _ => runs.push((v, v)),
    }
}

/// Finite-sample law checks shared by domain test suites.
pub mod laws {
    use super::*;

    /// Checks `S ⊆ γ(α(S))` (extensivity of the induced closure) and
    /// idempotency on a list of state sets.
    pub fn check_closure_laws<A: Abstraction>(
        dom: &A,
        universe: &Universe,
        sets: &[StateSet],
    ) -> Result<(), String> {
        for s in sets {
            let c = dom.closure_set(universe, s);
            if !s.is_subset(&c) {
                return Err(format!(
                    "γ∘α not extensive on {s:?} (domain {})",
                    dom.name()
                ));
            }
            let cc = dom.closure_set(universe, &c);
            if cc != c {
                return Err(format!(
                    "γ∘α not idempotent on {s:?} (domain {})",
                    dom.name()
                ));
            }
        }
        // Monotonicity on pairs.
        for a in sets {
            for b in sets {
                if a.is_subset(b) {
                    let ca = dom.closure_set(universe, a);
                    let cb = dom.closure_set(universe, b);
                    if !ca.is_subset(&cb) {
                        return Err(format!(
                            "γ∘α not monotone on {a:?} ⊆ {b:?} (domain {})",
                            dom.name()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks `α(γ(α(S))) = α(S)` — the insertion property along reachable
    /// elements.
    pub fn check_insertion<A: Abstraction>(
        dom: &A,
        universe: &Universe,
        sets: &[StateSet],
    ) -> Result<(), String> {
        for s in sets {
            let a = dom.alpha_set(universe, s);
            let back = dom.alpha_set(universe, &dom.gamma_set(universe, &a));
            if back != a {
                return Err(format!(
                    "α∘γ∘α ≠ α on {s:?}: {back:?} vs {a:?} (domain {})",
                    dom.name()
                ));
            }
        }
        Ok(())
    }
}
