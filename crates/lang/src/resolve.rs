//! Slot-resolved expressions: the one concrete expression evaluator.
//!
//! Every per-store loop of the enumerative engine evaluates the same
//! expression on thousands of stores. [`ResolvedAExp`] and [`ResolvedBExp`]
//! resolve each variable name to its store slot once (per basic command,
//! per predicate), so evaluating a store is a tree walk over integers with
//! no name lookup and no allocation.
//!
//! Resolution never fails: a variable the universe does not declare
//! becomes a node that raises [`SemError::UnknownVar`] when — and only
//! when — some store actually evaluates it. Evaluation order is the
//! source order (left operand first; `&&`/`||` short-circuit), so the
//! first error a store raises is the one a name-by-name interpreter would
//! raise. [`Concrete::eval_aexp`](crate::Concrete::eval_aexp) and
//! [`Concrete::eval_bexp`](crate::Concrete::eval_bexp) are thin wrappers
//! over this module.

use std::sync::Arc;

use crate::ast::{AExp, BExp, CmpOp};
use crate::semantics::SemError;
use crate::store::Universe;

/// Why a store's evaluation failed; `Unknown(k)` names the `k`-th
/// unresolved variable. Two words, so results travel in registers.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Overflow,
    Unknown(u32),
}

#[derive(Clone, Debug)]
enum ANode {
    Num(i64),
    Slot(usize),
    Unknown(u32),
    Add(Box<(ANode, ANode)>),
    Sub(Box<(ANode, ANode)>),
    Mul(Box<(ANode, ANode)>),
}

#[derive(Clone, Debug)]
enum BNode {
    Const(bool),
    Cmp(CmpOp, Box<(ANode, ANode)>),
    And(Box<(BNode, BNode)>),
    Or(Box<(BNode, BNode)>),
    Not(Box<BNode>),
}

/// Names of undeclared variables met during resolution, in order of first
/// occurrence.
struct Resolver<'u> {
    universe: &'u Universe,
    unknown: Vec<Arc<str>>,
}

impl Resolver<'_> {
    fn var(&mut self, x: &Arc<str>) -> ANode {
        if let Some(i) = self.universe.var_index(x) {
            return ANode::Slot(i);
        }
        let k = match self.unknown.iter().position(|y| y == x) {
            Some(k) => k,
            None => {
                self.unknown.push(x.clone());
                self.unknown.len() - 1
            }
        };
        ANode::Unknown(k as u32)
    }

    fn aexp(&mut self, a: &AExp) -> ANode {
        let mut pair = |l: &AExp, r: &AExp| Box::new((self.aexp(l), self.aexp(r)));
        match a {
            AExp::Num(n) => ANode::Num(*n),
            AExp::Var(x) => self.var(x),
            AExp::Add(l, r) => ANode::Add(pair(l, r)),
            AExp::Sub(l, r) => ANode::Sub(pair(l, r)),
            AExp::Mul(l, r) => ANode::Mul(pair(l, r)),
        }
    }

    fn bexp(&mut self, b: &BExp) -> BNode {
        match b {
            BExp::Tt => BNode::Const(true),
            BExp::Ff => BNode::Const(false),
            BExp::Cmp(op, l, r) => BNode::Cmp(*op, Box::new((self.aexp(l), self.aexp(r)))),
            BExp::And(l, r) => BNode::And(Box::new((self.bexp(l), self.bexp(r)))),
            BExp::Or(l, r) => BNode::Or(Box::new((self.bexp(l), self.bexp(r)))),
            BExp::Not(inner) => BNode::Not(Box::new(self.bexp(inner))),
        }
    }
}

impl ANode {
    #[inline]
    fn eval(&self, store: &[i64]) -> Result<i64, Fault> {
        match self {
            ANode::Num(n) => Ok(*n),
            ANode::Slot(i) => Ok(store[*i]),
            ANode::Unknown(k) => Err(Fault::Unknown(*k)),
            ANode::Add(p) => (p.0.eval(store)?)
                .checked_add(p.1.eval(store)?)
                .ok_or(Fault::Overflow),
            ANode::Sub(p) => (p.0.eval(store)?)
                .checked_sub(p.1.eval(store)?)
                .ok_or(Fault::Overflow),
            ANode::Mul(p) => (p.0.eval(store)?)
                .checked_mul(p.1.eval(store)?)
                .ok_or(Fault::Overflow),
        }
    }
}

impl BNode {
    #[inline]
    fn eval(&self, store: &[i64]) -> Result<bool, Fault> {
        match self {
            BNode::Const(b) => Ok(*b),
            BNode::Cmp(op, p) => Ok(op.eval(p.0.eval(store)?, p.1.eval(store)?)),
            BNode::And(p) => Ok(p.0.eval(store)? && p.1.eval(store)?),
            BNode::Or(p) => Ok(p.0.eval(store)? || p.1.eval(store)?),
            BNode::Not(inner) => Ok(!inner.eval(store)?),
        }
    }
}

fn raise(unknown: &[Arc<str>], fault: Fault) -> SemError {
    match fault {
        Fault::Overflow => SemError::Overflow,
        Fault::Unknown(k) => SemError::UnknownVar(unknown[k as usize].clone()),
    }
}

/// An arithmetic expression with its variables resolved to the store
/// slots of one universe.
///
/// # Example
///
/// ```
/// use air_lang::resolve::ResolvedAExp;
/// use air_lang::{AExp, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", 0, 9), ("y", 0, 9)])?;
/// let a = ResolvedAExp::new(&u, &AExp::var("y").mul(AExp::Num(2)));
/// assert_eq!(a.eval(&[1, 4])?, 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ResolvedAExp {
    root: ANode,
    unknown: Vec<Arc<str>>,
}

impl ResolvedAExp {
    /// Resolves `a` against `universe`'s variables.
    pub fn new(universe: &Universe, a: &AExp) -> Self {
        let mut r = Resolver {
            universe,
            unknown: Vec::new(),
        };
        let root = r.aexp(a);
        ResolvedAExp {
            root,
            unknown: r.unknown,
        }
    }

    /// Evaluates the expression in a store of the resolving universe.
    ///
    /// # Errors
    ///
    /// [`SemError::UnknownVar`] when evaluation reaches an undeclared
    /// variable and [`SemError::Overflow`] on `i64` overflow, whichever
    /// comes first in evaluation order.
    #[inline]
    pub fn eval(&self, store: &[i64]) -> Result<i64, SemError> {
        self.root.eval(store).map_err(|f| raise(&self.unknown, f))
    }
}

/// A Boolean expression with its variables resolved to the store slots of
/// one universe; see [`ResolvedAExp`].
#[derive(Clone, Debug)]
pub struct ResolvedBExp {
    root: BNode,
    unknown: Vec<Arc<str>>,
}

impl ResolvedBExp {
    /// Resolves `b` against `universe`'s variables.
    pub fn new(universe: &Universe, b: &BExp) -> Self {
        let mut r = Resolver {
            universe,
            unknown: Vec::new(),
        };
        let root = r.bexp(b);
        ResolvedBExp {
            root,
            unknown: r.unknown,
        }
    }

    /// Evaluates the guard in a store of the resolving universe.
    ///
    /// # Errors
    ///
    /// As [`ResolvedAExp::eval`]; `&&`/`||` do not evaluate their right
    /// operand once the left one decides.
    #[inline]
    pub fn eval(&self, store: &[i64]) -> Result<bool, SemError> {
        self.root.eval(store).map_err(|f| raise(&self.unknown, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_bexp;

    fn universe() -> Universe {
        Universe::new(&[("x", -4, 4), ("y", -4, 4)]).unwrap()
    }

    #[test]
    fn unknown_variables_error_only_when_reached() {
        let u = universe();
        let b = ResolvedBExp::new(&u, &parse_bexp("x > 0 && z = 1").unwrap());
        // x ≤ 0 short-circuits before `z` is read.
        assert_eq!(b.eval(&[0, 0]), Ok(false));
        assert_eq!(b.eval(&[1, 0]), Err(SemError::UnknownVar("z".into())));
        let or = ResolvedBExp::new(&u, &parse_bexp("x > 0 || w = 1").unwrap());
        assert_eq!(or.eval(&[1, 0]), Ok(true));
        assert_eq!(or.eval(&[0, 0]), Err(SemError::UnknownVar("w".into())));
    }

    #[test]
    fn left_operand_errors_first() {
        let u = Universe::new(&[("x", i64::MAX - 1, i64::MAX - 1)]).unwrap();
        // The overflow on the left wins over the unknown name on the right.
        let a = ResolvedAExp::new(&u, &AExp::var("x").add(2.into()).add(AExp::var("q")));
        assert_eq!(a.eval(&[i64::MAX - 1]), Err(SemError::Overflow));
        let b = ResolvedAExp::new(&u, &AExp::var("q").add(AExp::var("x").add(2.into())));
        assert_eq!(
            b.eval(&[i64::MAX - 1]),
            Err(SemError::UnknownVar("q".into()))
        );
    }

    #[test]
    fn repeated_unknown_names_share_one_entry() {
        let u = universe();
        let b = ResolvedBExp::new(&u, &parse_bexp("z = z + v").unwrap());
        assert_eq!(b.unknown.len(), 2);
        assert_eq!(b.eval(&[0, 0]), Err(SemError::UnknownVar("z".into())));
    }
}
