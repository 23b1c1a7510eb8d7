//! Compiling regular commands to transition systems.
//!
//! A regular command over a finite universe induces a transition system
//! whose states are `(control location, store)` pairs: first the command
//! is translated to a small control-flow graph (a Thompson-style
//! construction over `Reg`), then each CFG edge `ℓ —e→ ℓ'` contributes the
//! concrete transitions of the basic command `e`. This lets the same
//! programs drive both the AIR verifier and the CEGAR model checker
//! (Section 7's `r_π` correspondence, read in reverse).

use air_lang::ast::{Exp, Reg};
use air_lang::{Concrete, SemError, StateSet, Universe};
use air_lattice::BitVecSet;

use crate::ts::TransitionSystem;

/// A control-flow graph with basic commands on edges.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Number of control locations.
    pub num_nodes: usize,
    /// Edges `(from, command, to)`.
    pub edges: Vec<(usize, Exp, usize)>,
    /// Entry location.
    pub entry: usize,
    /// Exit location.
    pub exit: usize,
}

impl Cfg {
    /// Builds the CFG of a regular command.
    pub fn of_reg(r: &Reg) -> Cfg {
        let mut cfg = Cfg {
            num_nodes: 2,
            edges: Vec::new(),
            entry: 0,
            exit: 1,
        };
        cfg.build(r, 0, 1);
        cfg
    }

    fn fresh(&mut self) -> usize {
        let n = self.num_nodes;
        self.num_nodes += 1;
        n
    }

    fn build(&mut self, r: &Reg, from: usize, to: usize) {
        match r {
            Reg::Basic(e) => self.edges.push((from, e.clone(), to)),
            Reg::Seq(r1, r2) => {
                let mid = self.fresh();
                self.build(r1, from, mid);
                self.build(r2, mid, to);
            }
            Reg::Choice(r1, r2) => {
                self.build(r1, from, to);
                self.build(r2, from, to);
            }
            Reg::Star(body) => {
                // from —skip→ loop; loop —body→ loop; loop —skip→ to.
                let hub = self.fresh();
                self.edges.push((from, Exp::Skip, hub));
                self.build(body, hub, hub);
                self.edges.push((hub, Exp::Skip, to));
            }
        }
    }
}

/// A program compiled to a transition system over `(location, store)`
/// states.
#[derive(Clone, Debug)]
pub struct ProgramTs {
    ts: TransitionSystem,
    cfg: Cfg,
    universe: Universe,
}

impl ProgramTs {
    /// Compiles `r` over `universe`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from evaluating basic commands (unknown
    /// variables, overflow); universe-escaping assignments simply produce
    /// no transition, consistent with the restricted collecting semantics.
    pub fn compile(universe: &Universe, r: &Reg) -> Result<ProgramTs, SemError> {
        let cfg = Cfg::of_reg(r);
        let n = universe.size();
        let mut ts = TransitionSystem::new(cfg.num_nodes * n);
        let sem = Concrete::new(universe);
        for (from, e, to) in &cfg.edges {
            for i in 0..n {
                let single = BitVecSet::from_indices(n, [i]);
                let post = sem.exec_exp(e, &single)?;
                for j in post.iter() {
                    ts.add_edge(from * n + i, to * n + j);
                }
            }
        }
        Ok(ProgramTs {
            ts,
            cfg,
            universe: universe.clone(),
        })
    }

    /// The underlying transition system.
    pub fn ts(&self) -> &TransitionSystem {
        &self.ts
    }

    /// The control-flow graph.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The `(entry, store)` states for an input property.
    pub fn init_states(&self, input: &StateSet) -> BitVecSet {
        self.lift(self.cfg.entry, input)
    }

    /// The `(exit, store)` states violating a spec — the bad states of the
    /// reachability check.
    pub fn bad_states(&self, spec: &StateSet) -> BitVecSet {
        self.lift(self.cfg.exit, &spec.complement())
    }

    /// Lifts a store set to TS states at a control location.
    pub fn lift(&self, location: usize, stores: &StateSet) -> BitVecSet {
        let n = self.universe.size();
        let mut out = BitVecSet::new(self.ts.num_states());
        for i in stores.iter() {
            out.insert(location * n + i);
        }
        out
    }

    /// Projects TS states at the exit location back to stores.
    pub fn exit_stores(&self, states: &BitVecSet) -> StateSet {
        let n = self.universe.size();
        let mut out = self.universe.empty();
        for s in states.iter() {
            if s / n == self.cfg.exit {
                out.insert(s % n);
            }
        }
        out
    }

    /// The partition key grouping TS states by control location — the
    /// natural initial abstraction for software model checking.
    pub fn location_of(&self, ts_state: usize) -> usize {
        ts_state / self.universe.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Cegar, CegarResult, Heuristic};
    use crate::partition::Partition;
    use air_lang::parse_program;

    #[test]
    fn cfg_shapes() {
        let p = parse_program("x := 1; x := 2").unwrap();
        let cfg = Cfg::of_reg(&p);
        assert_eq!(cfg.edges.len(), 2);
        let w = parse_program("while (x > 0) do { x := x - 1 }").unwrap();
        let cw = Cfg::of_reg(&w);
        // (b?; body)* contributes a hub with a self-loop path.
        assert!(cw.edges.len() >= 4);
    }

    #[test]
    fn program_reachability_matches_collecting_semantics() {
        let u = Universe::new(&[("x", 0, 6)]).unwrap();
        let prog = parse_program("while (x < 4) do { x := x + 1 }").unwrap();
        let pts = ProgramTs::compile(&u, &prog).unwrap();
        let input = u.of_values([0, 5]);
        let reach = pts.ts().reachable(&pts.init_states(&input));
        let at_exit = pts.exit_stores(&reach);
        let sem = Concrete::new(&u);
        assert_eq!(at_exit, sem.exec(&prog, &input).unwrap());
    }

    #[test]
    fn cegar_verifies_a_program_property() {
        // AbsVal: from odd inputs, the exit store x = 0 is unreachable.
        let u = Universe::new(&[("x", -4, 4)]).unwrap();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let pts = ProgramTs::compile(&u, &prog).unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        let init = pts.init_states(&odd);
        let bad = pts.bad_states(&spec);
        // Initial abstraction: group by control location only.
        let loc_partition = Partition::from_key(pts.ts().num_states(), |s| pts.location_of(s));
        for h in Heuristic::ALL {
            let res = Cegar::new(pts.ts(), &init, &bad, h)
                .initial_partition(loc_partition.clone())
                .run()
                .unwrap();
            assert!(res.is_safe(), "{} failed", h.label());
        }
    }

    #[test]
    fn cegar_finds_real_program_bug() {
        let u = Universe::new(&[("x", 0, 6)]).unwrap();
        let prog = parse_program("x := x + 1").unwrap();
        let pts = ProgramTs::compile(&u, &prog).unwrap();
        let input = u.filter(|s| s[0] <= 4);
        let spec = u.filter(|s| s[0] <= 3); // violated by x = 4
        let init = pts.init_states(&input);
        let bad = pts.bad_states(&spec);
        let res = Cegar::new(pts.ts(), &init, &bad, Heuristic::BackwardAir)
            .run()
            .unwrap();
        let CegarResult::Unsafe { path, .. } = res else {
            panic!("must be unsafe");
        };
        // The concrete path starts at (entry, x=4) and ends at (exit, x=5)...
        // project: the last state is an exit state violating the spec.
        let last = *path.last().unwrap();
        let exit_store = pts.exit_stores(&BitVecSet::from_indices(pts.ts().num_states(), [last]));
        assert!(!exit_store.is_empty());
        assert!(exit_store.iter().all(|i| u.store_at(i)[0] > 3));
    }

    #[test]
    fn escaping_assignments_produce_no_transition() {
        let u = Universe::new(&[("x", 0, 2)]).unwrap();
        let prog = parse_program("x := x + 1").unwrap();
        let pts = ProgramTs::compile(&u, &prog).unwrap();
        // From x = 2 the increment escapes: no outgoing edge.
        let from = pts.init_states(&u.of_values([2]));
        assert!(pts.ts().post(&from).is_empty());
    }
}
