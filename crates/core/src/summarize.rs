//! Rendering state sets as unions of interval boxes.
//!
//! Repaired abstract elements are plain state sets; to present them like
//! the paper's symbolic points (`P̄ = i ∈ [1,6] ∧ j ∈ [0, T_{i-1}]`,
//! `V̄ = (i ∈ [1,5] ∧ j ∈ [0,∞]) ∨ (i = 6 ∧ j ∈ [0,15])`, …), this module
//! greedily covers a set with maximal axis-aligned boxes and pretty-prints
//! the disjunction. The cover is exact (its union is the set), not
//! necessarily minimal.
//!
//! # Cost model
//!
//! The cover works in index space on the universe's row layout: a *row*
//! is the run of [`Universe::row_len`] consecutive indices along which
//! only the last variable moves, so a box is one index run per row it
//! spans. Every step is a word-parallel run kernel of the bitset rather
//! than a per-store decode:
//!
//! - growing a box one step along any variable but the last tests the new
//!   slab with one [`contains_range`](air_lattice::bitset::BitVecSet::contains_range)
//!   per row of the slab;
//! - growing along the last variable scans each row of the box once for
//!   the end of its run ([`first_absent_in`](air_lattice::bitset::BitVecSet::first_absent_in)
//!   up, [`last_absent_in`](air_lattice::bitset::BitVecSet::last_absent_in) down),
//!   however far the box grows;
//! - a covered box leaves the remainder with one
//!   [`remove_range`](air_lattice::bitset::BitVecSet::remove_range) per row;
//! - the next seed is searched from the previous one, never from word 0.
//!
//! So one growth step costs one range check per row of the slab, at most
//! `⌈row_len / 64⌉ + 1` words each.

use std::fmt::Write as _;

use air_lang::{StateSet, Universe};

/// One axis-aligned box: a closed interval per variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoxSummary {
    /// Per-variable `[lo, hi]` bounds, in universe variable order.
    pub bounds: Vec<(i64, i64)>,
}

impl BoxSummary {
    /// Renders against the universe's variable names, eliding variables
    /// that span their full declared range.
    pub fn display(&self, universe: &Universe) -> String {
        let mut out = String::new();
        self.write_into(universe, &mut out);
        out
    }

    /// Appends [`display`](Self::display)'s text to `out`.
    fn write_into(&self, universe: &Universe, out: &mut String) {
        let start = out.len();
        for (i, name) in universe.var_names().enumerate() {
            let (lo, hi) = self.bounds[i];
            if (lo, hi) == universe.var_range(i) {
                continue; // unconstrained
            }
            if out.len() > start {
                out.push_str(" ∧ ");
            }
            // Writing to a `String` cannot fail.
            let _ = if lo == hi {
                write!(out, "{name} = {lo}")
            } else {
                write!(out, "{name} ∈ [{lo}, {hi}]")
            };
        }
        if out.len() == start {
            out.push('⊤');
        }
    }

    /// Membership test for the box.
    pub fn contains(&self, store: &[i64]) -> bool {
        self.bounds
            .iter()
            .zip(store)
            .all(|(&(lo, hi), &v)| lo <= v && v <= hi)
    }
}

/// A box in index space: per variable, the inclusive offsets
/// `value - lo` of its bounds.
type Offsets = Vec<(usize, usize)>;

/// The universe's mixed-radix layout, in offsets from each variable's
/// lower bound.
struct Grid {
    /// Each variable's declared lower bound.
    lo: Vec<i64>,
    /// Each variable's number of values.
    extent: Vec<usize>,
    /// `strides[i]`: the index distance between consecutive values of
    /// variable `i` (the product of the later extents; 1 for the last).
    strides: Vec<usize>,
}

impl Grid {
    fn new(universe: &Universe) -> Grid {
        let n = universe.num_vars();
        let (lo, extent): (Vec<i64>, Vec<usize>) = (0..n)
            .map(|i| {
                let (lo, hi) = universe.var_range(i);
                (lo, (hi - lo + 1) as usize)
            })
            .unzip();
        let mut strides = vec![1; n];
        for i in (0..n - 1).rev() {
            strides[i] = strides[i + 1] * extent[i + 1];
        }
        Grid {
            lo,
            extent,
            strides,
        }
    }

    /// The one-store box at `idx`.
    fn seed_box(&self, idx: usize) -> Offsets {
        self.strides
            .iter()
            .zip(&self.extent)
            .map(|(&stride, &extent)| {
                let x = idx / stride % extent;
                (x, x)
            })
            .collect()
    }

    /// Calls `f` with the first index of every row the box `b` spans
    /// (every variable but the last within its bounds), ascending, until
    /// `f` returns `false`; returns whether it never did.
    fn rows(&self, b: &[(usize, usize)], f: &mut impl FnMut(usize) -> bool) -> bool {
        self.rows_from(b, 0, 0, f)
    }

    fn rows_from(
        &self,
        b: &[(usize, usize)],
        dim: usize,
        base: usize,
        f: &mut impl FnMut(usize) -> bool,
    ) -> bool {
        if dim + 1 == b.len() {
            return f(base);
        }
        let (lo, hi) = b[dim];
        (lo..=hi).all(|x| self.rows_from(b, dim + 1, base + x * self.strides[dim], f))
    }

    /// Whether the slab of `b` with variable `d` (not the last) pinned to
    /// offset `v` lies inside `set`: one range check per row.
    fn slab_inside(&self, set: &StateSet, b: &mut [(usize, usize)], d: usize, v: usize) -> bool {
        let saved = std::mem::replace(&mut b[d], (v, v));
        let (lo, hi) = b[b.len() - 1];
        let inside = self.rows(b, &mut |base| set.contains_range(base + lo, base + hi + 1));
        b[d] = saved;
        inside
    }

    /// Grows `b` to a box of `set` that no single step along one variable
    /// can extend: each variable in order, up as far as it goes, then
    /// down, until a whole pass changes nothing.
    fn grow(&self, set: &StateSet, b: &mut Offsets) {
        let last = b.len() - 1;
        let row_len = self.extent[last];
        let mut changed = true;
        while changed {
            changed = false;
            for d in 0..last {
                while b[d].1 + 1 < self.extent[d] {
                    let v = b[d].1 + 1;
                    if !self.slab_inside(set, b, d, v) {
                        break;
                    }
                    b[d].1 = v;
                    changed = true;
                }
                while b[d].0 > 0 {
                    let v = b[d].0 - 1;
                    if !self.slab_inside(set, b, d, v) {
                        break;
                    }
                    b[d].0 = v;
                    changed = true;
                }
            }
            // The last variable: every row's run bounds the growth, and
            // the box grows to the shortest of them.
            let (lo, hi) = b[last];
            let mut top = row_len - 1;
            self.rows(b, &mut |base| {
                if let Some(gap) = set.first_absent_in(base + hi + 1, base + row_len) {
                    top = top.min(gap - base - 1);
                }
                top > hi
            });
            let mut bottom = 0;
            self.rows(b, &mut |base| {
                if let Some(gap) = set.last_absent_in(base, base + lo) {
                    bottom = bottom.max(gap - base + 1);
                }
                bottom < lo
            });
            if (bottom, top) != (lo, hi) {
                b[last] = (bottom, top);
                changed = true;
            }
        }
    }

    /// The box's bounds as variable values.
    fn values(&self, b: &[(usize, usize)]) -> Vec<(i64, i64)> {
        b.iter()
            .zip(&self.lo)
            .map(|(&(lo, hi), &base)| (base + lo as i64, base + hi as i64))
            .collect()
    }
}

/// Greedily covers `set` with maximal boxes: repeatedly grow a box from
/// the smallest uncovered store, expanding one dimension at a time as far
/// as the set allows.
///
/// # Example
///
/// ```
/// use air_core::summarize;
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -4, 4)])?;
/// let z_nonzero = u.filter(|s| s[0] != 0);
/// let boxes = summarize(&u, &z_nonzero);
/// assert_eq!(boxes.len(), 2); // [-4,-1] ∪ [1,4]
/// # Ok(())
/// # }
/// ```
pub fn summarize(universe: &Universe, set: &StateSet) -> Vec<BoxSummary> {
    let grid = Grid::new(universe);
    let mut remaining = set.clone();
    let mut boxes = Vec::new();
    // Every store below a seed is covered already, so each search
    // resumes at the previous seed.
    let mut seed = 0;
    while let Some(idx) = remaining.first_in(seed, universe.size()) {
        seed = idx;
        let mut b = grid.seed_box(seed);
        // Maximal w.r.t. the *original* set, not the remainder: that
        // gives nicer overlapping covers.
        grid.grow(set, &mut b);
        let (lo, hi) = b[b.len() - 1];
        grid.rows(&b, &mut |base| {
            remaining.remove_range(base + lo, base + hi + 1);
            true
        });
        boxes.push(BoxSummary {
            bounds: grid.values(&b),
        });
    }
    boxes
}

/// Renders a full summary as a disjunction of boxes.
pub fn display_set(universe: &Universe, set: &StateSet) -> String {
    if set.is_empty() {
        return "⊥".to_owned();
    }
    let boxes = summarize(universe, set);
    let mut out = String::new();
    for (k, b) in boxes.iter().enumerate() {
        if k > 0 {
            out.push_str(" ∨ ");
        }
        let start = out.len();
        b.write_into(universe, &mut out);
        if boxes.len() > 1 && out[start..].contains('∧') {
            out.insert(start, '(');
            out.push(')');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-store cover the row-run one replaced, kept as the oracle:
    /// the same greedy steps, with every slab probed store by store.
    mod reference {
        use super::*;

        pub fn summarize(universe: &Universe, set: &StateSet) -> Vec<BoxSummary> {
            let mut remaining = set.clone();
            let mut boxes = Vec::new();
            while let Some(seed_idx) = remaining.min_index() {
                let seed = universe.store_at(seed_idx);
                let mut bounds: Vec<(i64, i64)> = seed.iter().map(|&v| (v, v)).collect();
                let mut changed = true;
                while changed {
                    changed = false;
                    for d in 0..bounds.len() {
                        let (ulo, uhi) = universe.var_range(d);
                        while bounds[d].1 < uhi
                            && slab_inside(universe, set, &bounds, d, bounds[d].1 + 1)
                        {
                            bounds[d].1 += 1;
                            changed = true;
                        }
                        while bounds[d].0 > ulo
                            && slab_inside(universe, set, &bounds, d, bounds[d].0 - 1)
                        {
                            bounds[d].0 -= 1;
                            changed = true;
                        }
                    }
                }
                let bx = BoxSummary { bounds };
                let mut store = vec![0i64; universe.num_vars()];
                remove_box(universe, &mut remaining, &bx, &mut store, 0);
                boxes.push(bx);
            }
            boxes
        }

        fn slab_inside(
            universe: &Universe,
            set: &StateSet,
            bounds: &[(i64, i64)],
            d: usize,
            v: i64,
        ) -> bool {
            let mut store = vec![0i64; bounds.len()];
            slab_rec(universe, set, bounds, d, v, &mut store, 0)
        }

        fn slab_rec(
            universe: &Universe,
            set: &StateSet,
            bounds: &[(i64, i64)],
            d: usize,
            v: i64,
            store: &mut Vec<i64>,
            dim: usize,
        ) -> bool {
            if dim == bounds.len() {
                return match universe.store_index(store) {
                    Some(i) => set.contains(i),
                    None => false,
                };
            }
            if dim == d {
                store[dim] = v;
                return slab_rec(universe, set, bounds, d, v, store, dim + 1);
            }
            let (lo, hi) = bounds[dim];
            for x in lo..=hi {
                store[dim] = x;
                if !slab_rec(universe, set, bounds, d, v, store, dim + 1) {
                    return false;
                }
            }
            true
        }

        fn remove_box(
            universe: &Universe,
            remaining: &mut StateSet,
            bx: &BoxSummary,
            store: &mut Vec<i64>,
            dim: usize,
        ) {
            if dim == bx.bounds.len() {
                if let Some(i) = universe.store_index(store) {
                    remaining.remove(i);
                }
                return;
            }
            let (lo, hi) = bx.bounds[dim];
            for v in lo..=hi {
                store[dim] = v;
                remove_box(universe, remaining, bx, store, dim + 1);
            }
        }

        /// `display_set` as it was: one `String` per part and per box.
        pub fn display_set(universe: &Universe, set: &StateSet) -> String {
            if set.is_empty() {
                return "⊥".to_owned();
            }
            let boxes = summarize(universe, set);
            boxes
                .iter()
                .map(|b| {
                    let parts: Vec<String> = universe
                        .var_names()
                        .enumerate()
                        .filter_map(|(i, name)| {
                            let (lo, hi) = b.bounds[i];
                            if (lo, hi) == universe.var_range(i) {
                                None
                            } else if lo == hi {
                                Some(format!("{name} = {lo}"))
                            } else {
                                Some(format!("{name} ∈ [{lo}, {hi}]"))
                            }
                        })
                        .collect();
                    let s = if parts.is_empty() {
                        "⊤".to_owned()
                    } else {
                        parts.join(" ∧ ")
                    };
                    if boxes.len() > 1 && s.contains('∧') {
                        format!("({s})")
                    } else {
                        s
                    }
                })
                .collect::<Vec<_>>()
                .join(" ∨ ")
        }
    }

    /// The row-run cover and its rendering equal the per-store oracle's.
    fn assert_matches_reference(u: &Universe, s: &StateSet) {
        let boxes = summarize(u, s);
        assert_eq!(boxes, reference::summarize(u, s), "boxes of {s:?}");
        let covered = u.filter(|st| boxes.iter().any(|b| b.contains(st)));
        assert_eq!(&covered, s, "the cover is exact");
        assert_eq!(display_set(u, s), reference::display_set(u, s));
    }

    /// A deterministic pseudo-random bit for store `i` under `seed`.
    fn coin(seed: u64, i: usize, percent: u64) -> bool {
        let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 100 < percent
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random universes of 1–4 variables (negative, singleton and
        /// word-crossing ranges) and sets of every shape the cover meets:
        /// random density, diagonals, parity stripes, full and empty.
        #[test]
        fn row_run_cover_matches_the_per_store_oracle(
            nvars in 1usize..=4,
            los in proptest::collection::vec(-6i64..=3, 4..5),
            lens in proptest::collection::vec(1i64..=150, 4..5),
            shape in 0u8..6,
            percent in 0u64..=100,
            seed in 0u64..=u64::MAX,
        ) {
            // Caps keep every universe small: up to 150 values on one
            // variable, 5 per variable on four.
            let cap = [150, 24, 9, 5][nvars - 1];
            let names = ["a", "b", "c", "d"];
            let decls: Vec<(&str, i64, i64)> = (0..nvars)
                .map(|i| (names[i], los[i], los[i] + (lens[i] - 1) % cap))
                .collect();
            let u = Universe::new(&decls).unwrap();
            let s = match shape {
                0 => u.filter(|st| coin(seed, u.store_index(st).unwrap(), percent)),
                1 => u.filter(|st| st.iter().all(|&x| x - st[0] == 0)),
                2 => u.filter(|st| (st.iter().sum::<i64>() + seed as i64 % 2) % 2 == 0),
                3 => u.full(),
                4 => u.empty(),
                // Dense with a few holes: long runs across word seams.
                _ => u.filter(|st| !coin(seed, u.store_index(st).unwrap(), percent / 10)),
            };
            assert_matches_reference(&u, &s);
        }
    }

    /// The 1-D `absval` set at k = 12000: two long runs either side of a
    /// one-store hole, across hundreds of words.
    #[test]
    fn absval_at_12000_matches_the_per_store_oracle() {
        let u = Universe::new(&[("x", -12_000, 12_000)]).unwrap();
        let s = u.filter(|st| st[0] != 0);
        assert_matches_reference(&u, &s);
        assert_eq!(display_set(&u, &s), "x ∈ [-12000, -1] ∨ x ∈ [1, 12000]");
    }

    /// `countdown-cube` at n = 20: the stores its loop reaches from
    /// `x = 0` (the triangle `x + y ≤ 20` for every `z`) and from
    /// `x = 0 ∧ y = 20` (the diagonal `x + y = 20`).
    #[test]
    fn countdown_cube_posts_at_20_match_the_per_store_oracle() {
        use air_lang::{parse_bexp, parse_program, Concrete};
        let u = Universe::new(&[("x", 0, 20), ("y", 0, 20), ("z", 0, 20)]).unwrap();
        let body = parse_program("star { assume y >= 1; x := x + 1; y := y - 1 }").unwrap();
        let sem = Concrete::new(&u);
        for pre in ["x = 0", "x = 0 && y = 20"] {
            let pre = sem.sat(&parse_bexp(pre).unwrap()).unwrap();
            let post = sem.exec(&body, &pre).unwrap();
            assert_matches_reference(&u, &post);
        }
    }

    #[test]
    fn single_box_summary() {
        let u = Universe::new(&[("x", 0, 9), ("y", 0, 9)]).unwrap();
        let s = u.filter(|st| (2..=4).contains(&st[0]) && (1..=3).contains(&st[1]));
        let boxes = summarize(&u, &s);
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].bounds, vec![(2, 4), (1, 3)]);
        assert_eq!(boxes[0].display(&u), "x ∈ [2, 4] ∧ y ∈ [1, 3]");
    }

    #[test]
    fn hole_produces_two_boxes() {
        let u = Universe::new(&[("x", -4, 4)]).unwrap();
        let s = u.filter(|st| st[0] != 0);
        let boxes = summarize(&u, &s);
        assert_eq!(boxes.len(), 2);
        assert_eq!(display_set(&u, &s), "x ∈ [-4, -1] ∨ x ∈ [1, 4]");
    }

    #[test]
    fn cover_is_exact() {
        let u = Universe::new(&[("x", 0, 5), ("y", 0, 5)]).unwrap();
        // A diagonal: stress the box cover.
        let s = u.filter(|st| st[0] == st[1]);
        let boxes = summarize(&u, &s);
        let covered = u.filter(|st| boxes.iter().any(|b| b.contains(st)));
        assert_eq!(covered, s);
        assert_eq!(boxes.len(), 6); // each diagonal point is its own box
    }

    #[test]
    fn full_and_empty() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        assert_eq!(display_set(&u, &u.full()), "⊤");
        assert_eq!(display_set(&u, &u.empty()), "⊥");
    }

    #[test]
    fn singleton_renders_as_equality() {
        let u = Universe::new(&[("x", 0, 3), ("y", 0, 3)]).unwrap();
        let s = u.filter(|st| st[0] == 2 && st[1] == 2);
        assert_eq!(display_set(&u, &s), "x = 2 ∧ y = 2");
    }

    #[test]
    fn three_variable_boxes() {
        let u = Universe::new(&[("a", 0, 2), ("b", 0, 2), ("c", 0, 2)]).unwrap();
        let s = u.filter(|st| st[0] == 1 && st[2] >= 1);
        let boxes = summarize(&u, &s);
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].display(&u), "a = 1 ∧ c ∈ [1, 2]");
        // An L-shaped region needs two boxes but stays exact.
        let l = u.filter(|st| st[0] == 0 || st[1] == 0);
        let cover = summarize(&u, &l);
        let covered = u.filter(|st| cover.iter().any(|b| b.contains(st)));
        assert_eq!(covered, l);
        assert!(cover.len() >= 2);
    }

    #[test]
    fn paper_v_element_shape() {
        // V̄ = (i ∈ [1,5] ∧ j ∈ [0,∞]) ∨ (i = 6 ∧ j ∈ [0,15]) over a
        // finite universe: j's "∞" is the universe top 20.
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 20)]).unwrap();
        let v = u.filter(|s| ((1..=5).contains(&s[0])) || (s[0] == 6 && s[1] <= 15));
        let shown = display_set(&u, &v);
        // The greedy cover renders the same region as
        // (i ∈ [1,6] ∧ j ∈ [0,15]) ∨ (i ∈ [1,5]) — equivalent to the
        // paper's two disjuncts.
        assert!(shown.contains("i ∈ [1, 5]"), "{shown}");
        assert!(shown.contains("j ∈ [0, 15]"), "{shown}");
        let boxes = summarize(&u, &v);
        let covered = u.filter(|st| boxes.iter().any(|b| b.contains(st)));
        assert_eq!(covered, v);
    }
}
