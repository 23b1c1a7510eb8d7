//! Incremental re-repair: a long-lived verification session.
//!
//! A [`RepairSession`] owns the warm state of one `(universe, domain)`
//! pair — the shared [`SemCache`] (term arena, `wlp`/exec tables) and a
//! base [`EnumDomain`] whose closure and image memos persist across
//! verifications. Verifying a program warms those tables; re-verifying
//! it after an edit re-interns the program into the same arena, so every
//! subterm untouched by the edit keeps its id and with it every memoized
//! derivation — `wlp` sets, concrete transfer images, whole-term abstract
//! images. The re-repair cost is then proportional to the *edit*, not
//! the program: [`ReuseStats::fresh_nodes`] is exactly the structural
//! distance between the new program and everything the session has seen.
//!
//! Clones share those tables, so one session serves many threads: the
//! `air serve` registry keeps one per `(vars, domain)` key and hands
//! every request a clone carrying that request's strategy and governor
//! ([`checkout`](RepairSession::checkout)).
//!
//! Determinism: warm tables only memoize pure functions, so a session
//! verdict is byte-identical to a from-scratch run of the same program
//! (the edited-program equivalence tests in the umbrella crate pin this).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use air_lang::ast::Reg;
use air_lang::{SemCache, StateSet, TermArena, Universe};
use air_lattice::Governor;
use air_trace::Tracer;

use crate::algebra::EnumAlgebra;
use crate::domain::EnumDomain;
use crate::question::Strategy;
use crate::verify::{AlarmCounts, Verdict, Verifier};
use crate::RepairError;

/// What a session verification reused from its warm state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReuseStats {
    /// Distinct structural nodes in the verified program.
    pub program_nodes: usize,
    /// Nodes this verification added to the session arena — the
    /// structural distance from everything verified before (`0` when
    /// re-verifying an unchanged program).
    pub fresh_nodes: usize,
    /// `true` when the session's arena held programs before this call
    /// (so warm-table reuse was possible at all).
    pub incremental: bool,
}

impl ReuseStats {
    /// Nodes already interned before this call: `program_nodes -
    /// fresh_nodes`.
    pub fn reused_nodes(&self) -> usize {
        self.program_nodes - self.fresh_nodes
    }

    /// Fraction of the program's nodes that were already known, in
    /// `[0, 1]`; `0` for an empty program.
    pub fn reuse_ratio(&self) -> f64 {
        if self.program_nodes == 0 {
            0.0
        } else {
            self.reused_nodes() as f64 / self.program_nodes as f64
        }
    }
}

/// A session verdict: the ordinary [`Verdict`] plus what was reused.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The verification verdict — byte-identical to a from-scratch run.
    pub verdict: Verdict,
    /// Warm-state reuse accounting for this call.
    pub reuse: ReuseStats,
}

/// A long-lived verification session with warm caches (see the module
/// docs). Construct once per `(universe, base domain)` pair; call
/// [`verify`](RepairSession::verify) for every program revision.
#[derive(Clone, Debug)]
pub struct RepairSession {
    universe: Universe,
    base: EnumDomain,
    cache: SemCache,
    tracer: Tracer,
    governor: Governor,
    strategy: Strategy,
    /// Checkouts so far, shared by every clone.
    requests: Arc<AtomicU64>,
}

impl RepairSession {
    /// Creates a session over `universe` starting every verification
    /// from `base` (the unrefined domain; repairs never mutate it) by
    /// backward repair.
    pub fn new(universe: Universe, base: EnumDomain) -> RepairSession {
        RepairSession {
            universe,
            base,
            cache: SemCache::new(),
            tracer: Tracer::disabled(),
            governor: Governor::unlimited(),
            strategy: Strategy::Backward,
            requests: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Routes engine and cache telemetry through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.cache.set_tracer(&tracer);
        self.tracer = tracer;
        self
    }

    /// Enforces `governor` in every run this session makes.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Verifies with `strategy` (backward repair by default).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The session's universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The session's base domain (unrefined; verdicts carry the repaired
    /// clones).
    pub fn base(&self) -> &EnumDomain {
        &self.base
    }

    /// The shared semantic cache (for stats snapshots).
    pub fn cache(&self) -> &SemCache {
        &self.cache
    }

    /// A handle for one more request on these tables — a clone sharing
    /// the cache, the base memos and the request count — and whether
    /// the tables had been checked out before (were warm).
    pub fn checkout(&self) -> (RepairSession, bool) {
        let before = self.requests.fetch_add(1, Ordering::Relaxed);
        (self.clone(), before > 0)
    }

    /// Checkouts so far, across every clone.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    fn verifier(&self) -> Verifier<'_> {
        let u = &self.universe;
        Verifier::from_algebra(u, EnumAlgebra::with_cache(u, self.cache.clone()))
            .tracer(self.tracer.clone())
            .governor(self.governor.clone())
    }

    /// Interns `r` into the session arena and reports what it reused:
    /// the structural distance of this revision from everything the
    /// session has seen.
    pub fn reuse(&self, r: &Reg) -> ReuseStats {
        let arena = self.cache.arena();
        let incremental = !arena.is_empty();
        ReuseStats {
            fresh_nodes: arena.intern(r).fresh_nodes,
            program_nodes: TermArena::new().intern(r).fresh_nodes,
            incremental,
        }
    }

    /// Decides `⟦r⟧pre ≤ spec` with the session's strategy on the warm
    /// tables.
    ///
    /// # Errors
    ///
    /// Propagates [`RepairError`] exactly like [`Verifier::verify`].
    pub fn verdict(
        &self,
        r: &Reg,
        pre: &StateSet,
        spec: &StateSet,
    ) -> Result<Verdict, RepairError> {
        self.verifier()
            .verify(self.strategy, self.base.clone(), r, pre, spec)
    }

    /// Verifies `⟦r⟧pre ≤ spec`, reusing every warm derivation from
    /// earlier calls. The first call is an ordinary cold verification
    /// that warms the session; later calls — re-verifying after an edit,
    /// or re-checking unchanged programs — pay roughly per-fresh-node
    /// cost. The program is interned before the run
    /// ([`reuse`](Self::reuse)), so the outcome reports the distance of
    /// *this revision* and the run finds every node warm.
    ///
    /// # Errors
    ///
    /// Propagates [`RepairError`] exactly like [`Verifier::verify`].
    pub fn verify(
        &self,
        r: &Reg,
        pre: &StateSet,
        spec: &StateSet,
    ) -> Result<SessionOutcome, RepairError> {
        let reuse = self.reuse(r);
        let verdict = self.verdict(r, pre, spec)?;
        Ok(SessionOutcome { verdict, reuse })
    }

    /// Counts the alarms of the unrepaired analysis in the base domain
    /// (see [`Verifier::alarm_counts`]), on the warm tables.
    ///
    /// # Errors
    ///
    /// Propagates semantic errors and budget cutoffs.
    pub fn alarm_counts(
        &self,
        r: &Reg,
        pre: &StateSet,
        spec: &StateSet,
    ) -> Result<AlarmCounts, RepairError> {
        self.verifier().alarm_counts(&self.base, r, pre, spec)
    }

    /// Drops every warm table (arena ids survive; memo entries do not),
    /// for this session and every clone of it. The reset hook for
    /// long-lived daemons.
    pub fn flush(&self) {
        self.cache.reset();
        self.base.clear_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_domains::IntervalEnv;
    use air_lang::parse_program;

    fn session() -> (RepairSession, StateSet, StateSet) {
        let u = Universe::new(&[("x", -8, 8)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let pre = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        (RepairSession::new(u, dom), pre, spec)
    }

    #[test]
    fn reverifying_unchanged_program_reuses_everything() {
        let (sess, pre, spec) = session();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let first = sess.verify(&prog, &pre, &spec).unwrap();
        assert!(first.verdict.is_proved());
        assert!(!first.reuse.incremental);
        assert!(first.reuse.fresh_nodes > 0);
        let again = sess.verify(&prog, &pre, &spec).unwrap();
        assert!(again.verdict.is_proved());
        assert!(again.reuse.incremental);
        assert_eq!(again.reuse.fresh_nodes, 0, "unchanged program: full reuse");
        assert_eq!(again.reuse.reuse_ratio(), 1.0);
    }

    #[test]
    fn edits_cost_their_structural_distance() {
        let (sess, pre, spec) = session();
        let v1 = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let v2 = parse_program("if (x >= 0) then { x := x } else { x := 0 - x }").unwrap();
        sess.verify(&v1, &pre, &spec).unwrap();
        let edited = sess.verify(&v2, &pre, &spec).unwrap();
        let total = edited.reuse.program_nodes;
        assert!(edited.reuse.fresh_nodes < total, "most nodes reused");
        assert!(edited.reuse.reused_nodes() > 0);
    }

    #[test]
    fn session_verdict_matches_from_scratch() {
        let (sess, pre, spec) = session();
        let v1 = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let v2 = parse_program("if (x > 0) then { skip } else { x := 0 - x }").unwrap();
        sess.verify(&v1, &pre, &spec).unwrap();
        let incremental = sess.verify(&v2, &pre, &spec).unwrap();
        let u = sess.universe().clone();
        let scratch = Verifier::new(&u)
            .backward(sess.base().clone_fresh_caches(), &v2, &pre, &spec)
            .unwrap();
        assert_eq!(
            incremental.verdict.report(&u),
            scratch.report(&u),
            "incremental re-repair must be byte-identical to from-scratch"
        );
    }

    #[test]
    fn checkouts_share_tables_and_the_request_count() {
        let (sess, pre, spec) = session();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let (first, warm) = sess.checkout();
        assert!(!warm, "the first checkout finds cold tables");
        first.verify(&prog, &pre, &spec).unwrap();
        let (second, warm) = sess.checkout();
        assert!(warm);
        assert_eq!(sess.requests(), 2);
        // The second clone sees the program the first one interned.
        let again = second
            .strategy(Strategy::Forward)
            .verify(&prog, &pre, &spec)
            .unwrap();
        assert_eq!(again.reuse.fresh_nodes, 0);
        assert!(again.verdict.is_proved());
    }

    #[test]
    fn flush_drops_warm_state_but_keeps_results_identical() {
        let (sess, pre, spec) = session();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let before = sess.verify(&prog, &pre, &spec).unwrap();
        sess.flush();
        let after = sess.verify(&prog, &pre, &spec).unwrap();
        let u = sess.universe().clone();
        assert_eq!(before.verdict.report(&u), after.verdict.report(&u));
    }
}
