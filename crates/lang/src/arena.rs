//! Hash-consed term arena for regular commands.
//!
//! The semantic caches key memo tables on `(command, input set)`. With the
//! plain [`Reg`] tree as the command component, every lookup deep-clones
//! and deep-hashes the whole subtree — the dominant per-call overhead of
//! the backward-repair recursion, which queries the caches at every node
//! of the program on every `brepair` split. A [`TermArena`] interns each
//! distinct subterm once and hands out a dense [`TermId`]; cache keys then
//! carry a `u32` copy instead of an AST clone, and hashing a key is
//! hashing an integer.
//!
//! Interning is *structural* and bottom-up: two occurrences of the same
//! subterm — inside one program or across programs sharing the arena —
//! get the same id, so memoized images transfer automatically. That same
//! property powers incremental re-repair: interning an edited program
//! allocates fresh ids only for the nodes on the spine of the edit, and
//! [`InternOutcome::fresh_nodes`] *is* the size of the change; every
//! untouched subterm keeps its id and therefore its warm cache entries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use crate::ast::{Exp, Reg};

/// Process-wide arena identity counter (see [`TermArena::token`]).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Dense index of an interned term node within its [`TermArena`].
///
/// Ids are only meaningful relative to the arena that issued them; the
/// semantic caches keep arena and tables together so they can never drift
/// apart.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The raw index (for diagnostics and dense side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned node: leaves keep their basic command behind an `Arc`,
/// interior nodes refer to children by id.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermNode {
    /// A basic command `e`.
    Basic(Arc<Exp>),
    /// Sequential composition `r1; r2`.
    Seq(TermId, TermId),
    /// Nondeterministic choice `r1 ⊕ r2`.
    Choice(TermId, TermId),
    /// Kleene iteration `r*`.
    Star(TermId),
}

/// What an [`TermArena::intern`] call observed: the root id plus how many
/// nodes were new to the arena (zero when the whole term was already
/// interned — e.g. re-verifying an unchanged program).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternOutcome {
    /// Id of the term's root node.
    pub root: TermId,
    /// Nodes allocated by this call — the structural distance between the
    /// term and what the arena had already seen.
    pub fresh_nodes: usize,
}

#[derive(Default)]
struct ArenaInner {
    nodes: Vec<TermNode>,
    dedup: HashMap<TermNode, TermId>,
}

/// A shared, thread-safe, append-only pool of interned term nodes.
///
/// `clone()` is shallow: clones share the pool, exactly like the memo
/// tables that key on its ids.
#[derive(Clone)]
pub struct TermArena {
    inner: Arc<RwLock<ArenaInner>>,
    token: u64,
}

impl Default for TermArena {
    fn default() -> Self {
        TermArena {
            inner: Arc::default(),
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl TermArena {
    /// An empty arena.
    pub fn new() -> Self {
        TermArena::default()
    }

    /// A process-unique identity for this pool (shared by clones).
    ///
    /// Memo tables living *outside* the arena's cache (e.g. the abstract
    /// image memo of `air-core`'s `EnumDomain`) key on `(token, id, …)` so
    /// ids from two different arenas can never alias an entry.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Nodes interned so far.
    pub fn len(&self) -> usize {
        self.read().nodes.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, ArenaInner> {
        // The arena is append-only and every write keeps `nodes`/`dedup`
        // consistent before returning, so a poisoned lock holds valid
        // data; recover rather than propagate.
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn node(&self, id: TermId) -> TermNode {
        self.read().nodes[id.index()].clone()
    }

    fn intern_node(&self, node: TermNode) -> (TermId, bool) {
        if let Some(&id) = self.read().dedup.get(&node) {
            return (id, false);
        }
        let mut guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = guard.dedup.get(&node) {
            return (id, false);
        }
        let id = TermId(u32::try_from(guard.nodes.len()).expect("term arena overflow"));
        guard.nodes.push(node.clone());
        guard.dedup.insert(node, id);
        (id, true)
    }

    /// Interns a whole regular command bottom-up, reporting the root id
    /// and how many nodes were new (see [`InternOutcome`]).
    pub fn intern(&self, r: &Reg) -> InternOutcome {
        let mut fresh = 0usize;
        let root = self.intern_rec(r, &mut fresh);
        InternOutcome {
            root,
            fresh_nodes: fresh,
        }
    }

    fn intern_rec(&self, r: &Reg, fresh: &mut usize) -> TermId {
        let node = match r {
            Reg::Basic(e) => TermNode::Basic(Arc::new(e.clone())),
            Reg::Seq(a, b) => TermNode::Seq(self.intern_rec(a, fresh), self.intern_rec(b, fresh)),
            Reg::Choice(a, b) => {
                TermNode::Choice(self.intern_rec(a, fresh), self.intern_rec(b, fresh))
            }
            Reg::Star(body) => TermNode::Star(self.intern_rec(body, fresh)),
        };
        let (id, was_new) = self.intern_node(node);
        if was_new {
            *fresh += 1;
        }
        id
    }

    /// Reconstructs the [`Reg`] tree behind an id (diagnostics and tests;
    /// the engines never need to leave id space).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn resolve(&self, id: TermId) -> Reg {
        match self.node(id) {
            TermNode::Basic(e) => Reg::Basic((*e).clone()),
            TermNode::Seq(a, b) => self.resolve(a).seq(self.resolve(b)),
            TermNode::Choice(a, b) => self.resolve(a).choice(self.resolve(b)),
            TermNode::Star(body) => self.resolve(body).star(),
        }
    }
}

impl std::fmt::Debug for TermArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermArena")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn interning_is_structural_and_idempotent() {
        let arena = TermArena::new();
        let p = parse_program("x := x + 1; x := x + 1").unwrap();
        let first = arena.intern(&p);
        assert!(first.fresh_nodes > 0);
        // The two identical statements share one leaf node.
        assert_eq!(first.fresh_nodes, 2); // leaf + seq
        let again = arena.intern(&p);
        assert_eq!(again.root, first.root);
        assert_eq!(again.fresh_nodes, 0, "already fully interned");
    }

    #[test]
    fn shared_subterms_share_ids_across_programs() {
        let arena = TermArena::new();
        let a = parse_program("x := 0; star { x := x + 1 }").unwrap();
        let b = parse_program("x := 1; star { x := x + 1 }").unwrap();
        let before = arena.intern(&a).fresh_nodes;
        let delta = arena.intern(&b).fresh_nodes;
        assert!(before >= 3);
        // Only the changed leaf and the spine above it are new.
        assert_eq!(delta, 2); // `x := 1` leaf + new top-level seq
    }

    #[test]
    fn resolve_round_trips() {
        let arena = TermArena::new();
        let p =
            parse_program("if (x > 0) then { x := x - 1 } else { skip }; star { assume x < 3 }")
                .unwrap();
        let outcome = arena.intern(&p);
        assert_eq!(arena.resolve(outcome.root), p);
    }

    #[test]
    fn tokens_identify_pools() {
        let a = TermArena::new();
        let b = TermArena::new();
        assert_ne!(a.token(), b.token());
        assert_eq!(a.token(), a.clone().token());
    }

    #[test]
    fn clones_share_the_pool() {
        let arena = TermArena::new();
        let twin = arena.clone();
        let p = parse_program("skip").unwrap();
        let id = arena.intern(&p).root;
        assert_eq!(twin.intern(&p).root, id);
        assert_eq!(twin.intern(&p).fresh_nodes, 0);
        assert_eq!(arena.len(), twin.len());
    }
}
