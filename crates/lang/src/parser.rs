//! A recursive-descent parser for the Imp-like surface syntax.
//!
//! The surface language desugars to regular commands exactly as in the
//! paper (Section 3.2):
//!
//! ```text
//! stmt ::= 'skip'
//!        | ident ':=' aexp
//!        | 'assume' bexp                         -- the guard b?
//!        | 'if' '(' bexp ')' 'then' block ['else' block]
//!        | 'while' '(' bexp ')' 'do' block
//!        | 'do' block 'while' '(' bexp ')'
//!        | 'either' block ('or' block)+          -- choice r ⊕ r
//!        | 'star' block                          -- Kleene iteration r*
//!        | block
//! block ::= '{' [stmt (';' stmt)*] '}'
//! ```
//!
//! Boolean operators: `!` binds tighter than `&&`, which binds tighter than
//! `||`. Arithmetic: unary `-`, then `*`, then `+`/`-`.
//!
//! Programs come from outside, and the parser, the engines, printing and
//! `Drop` all recurse over the syntax tree, so nesting is bounded at
//! ingress: parentheses, blocks, `!` and unary `-` each open one level,
//! and every operator of a `+`/`-`/`*`/`&&`/`||` chain, every `;` of a
//! statement sequence and every `or` branch adds one, since chains build
//! trees as deep as they are long. Past [`MAX_NESTING`] levels the parse
//! fails with a [`ParseError`] instead of overflowing the stack.
//!
//! # Example
//!
//! ```
//! use air_lang::parse_program;
//!
//! let prog = parse_program(
//!     "i := 1; while (i <= 5) do { i := i + 1 }",
//! ).unwrap();
//! assert_eq!(prog.basic_count(), 4);
//! ```

use std::fmt;

pub use air_trace::json::MAX_NESTING;

use crate::ast::{AExp, BExp, CmpOp, Reg};

/// A parse failure, with a byte offset into the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(i64),
    Assign, // :=
    Semi,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Plus,
    Minus,
    Star,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    AndAnd,
    OrOr,
    Bang,
    Quest,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Num(n) => write!(f, "`{n}`"),
            Tok::Assign => write!(f, "`:=`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Ne => write!(f, "`!=`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Quest => write!(f, "`?`"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '#' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let n: i64 = text.parse().map_err(|_| ParseError {
                    offset: start,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                toks.push((start, Tok::Num(n)));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((start, Tok::Ident(src[start..i].to_owned())));
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Assign));
                    i += 2;
                } else {
                    return Err(ParseError {
                        offset: i,
                        message: "expected `:=`".to_owned(),
                    });
                }
            }
            ';' => {
                toks.push((i, Tok::Semi));
                i += 1;
            }
            '(' => {
                toks.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                toks.push((i, Tok::RParen));
                i += 1;
            }
            '{' => {
                toks.push((i, Tok::LBrace));
                i += 1;
            }
            '}' => {
                toks.push((i, Tok::RBrace));
                i += 1;
            }
            '+' => {
                toks.push((i, Tok::Plus));
                i += 1;
            }
            '-' => {
                toks.push((i, Tok::Minus));
                i += 1;
            }
            '*' => {
                toks.push((i, Tok::Star));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Le));
                    i += 2;
                } else {
                    toks.push((i, Tok::Lt));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Ge));
                    i += 2;
                } else {
                    toks.push((i, Tok::Gt));
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Eq));
                    i += 2;
                } else {
                    toks.push((i, Tok::Eq));
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Ne));
                    i += 2;
                } else {
                    toks.push((i, Tok::Bang));
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    toks.push((i, Tok::AndAnd));
                    i += 2;
                } else {
                    return Err(ParseError {
                        offset: i,
                        message: "expected `&&`".to_owned(),
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    toks.push((i, Tok::OrOr));
                    i += 2;
                } else {
                    return Err(ParseError {
                        offset: i,
                        message: "expected `||`".to_owned(),
                    });
                }
            }
            '?' => {
                toks.push((i, Tok::Quest));
                i += 1;
            }
            other => {
                return Err(ParseError {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(toks)
}

const KEYWORDS: &[&str] = &[
    "skip", "assume", "if", "then", "else", "while", "do", "either", "or", "star", "true", "false",
];

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    src_len: usize,
    /// Nesting levels open at `pos` (see the module docs).
    depth: usize,
    /// Set once `depth` passed [`MAX_NESTING`]: backtracking must not
    /// retry (or mask) that failure.
    too_deep: bool,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|(o, _)| *o)
            .unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected {tok}, found {t}"))),
            None => Err(self.err(format!("expected {tok}, found end of input"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected `{kw}`, found {t}"))),
            None => Err(self.err(format!("expected `{kw}`, found end of input"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    /// Opens one nesting level; callers restore `depth` when the level
    /// closes.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            self.too_deep = true;
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    // ---- arithmetic expressions ----

    fn aexp(&mut self) -> Result<AExp, ParseError> {
        let depth = self.depth;
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    self.nest()?;
                    lhs = lhs.add(self.term()?);
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    self.nest()?;
                    lhs = lhs.sub(self.term()?);
                }
                _ => {
                    self.depth = depth;
                    return Ok(lhs);
                }
            }
        }
    }

    fn term(&mut self) -> Result<AExp, ParseError> {
        let depth = self.depth;
        let mut lhs = self.factor()?;
        while self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            self.nest()?;
            lhs = lhs.mul(self.factor()?);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<AExp, ParseError> {
        match self.bump() {
            Some(Tok::Num(n)) => Ok(AExp::Num(n)),
            // Unary minus folds into numeric literals (so `-3` round-trips
            // as `Num(-3)`) and desugars to `0 - e` otherwise.
            Some(Tok::Minus) => match self.peek() {
                Some(Tok::Num(n)) => {
                    let n = *n;
                    self.pos += 1;
                    Ok(AExp::Num(-n))
                }
                _ => {
                    self.nest()?;
                    let e = self.factor()?.neg();
                    self.depth -= 1;
                    Ok(e)
                }
            },
            Some(Tok::Ident(name)) => {
                if KEYWORDS.contains(&name.as_str()) {
                    self.pos -= 1;
                    Err(self.err(format!("keyword `{name}` cannot be used as a variable")))
                } else {
                    Ok(AExp::var(&name))
                }
            }
            Some(Tok::LParen) => {
                self.nest()?;
                let e = self.aexp()?;
                self.expect(&Tok::RParen)?;
                self.depth -= 1;
                Ok(e)
            }
            Some(t) => {
                self.pos -= 1;
                Err(self.err(format!("expected arithmetic expression, found {t}")))
            }
            None => Err(self.err("expected arithmetic expression, found end of input")),
        }
    }

    // ---- boolean expressions ----

    fn bexp(&mut self) -> Result<BExp, ParseError> {
        let depth = self.depth;
        let mut lhs = self.band()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            self.nest()?;
            lhs = lhs.or(self.band()?);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn band(&mut self) -> Result<BExp, ParseError> {
        let depth = self.depth;
        let mut lhs = self.bnot()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            self.nest()?;
            lhs = lhs.and(self.bnot()?);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn bnot(&mut self) -> Result<BExp, ParseError> {
        if self.peek() == Some(&Tok::Bang) {
            self.pos += 1;
            self.nest()?;
            let b = BExp::Not(Box::new(self.bnot()?));
            self.depth -= 1;
            return Ok(b);
        }
        self.batom()
    }

    fn batom(&mut self) -> Result<BExp, ParseError> {
        if self.at_keyword("true") {
            self.pos += 1;
            return Ok(BExp::Tt);
        }
        if self.at_keyword("false") {
            self.pos += 1;
            return Ok(BExp::Ff);
        }
        // Try a comparison first; fall back to a parenthesized bexp.
        let (pos, depth) = (self.pos, self.depth);
        match self.comparison() {
            Ok(b) => Ok(b),
            Err(cmp_err) if self.too_deep => Err(cmp_err),
            Err(cmp_err) => {
                (self.pos, self.depth) = (pos, depth);
                if self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    self.nest()?;
                    let b = self.bexp()?;
                    self.expect(&Tok::RParen)?;
                    self.depth -= 1;
                    Ok(b)
                } else {
                    Err(cmp_err)
                }
            }
        }
    }

    fn comparison(&mut self) -> Result<BExp, ParseError> {
        let lhs = self.aexp()?;
        let op = match self.peek() {
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            _ => return Err(self.err("expected comparison operator")),
        };
        self.pos += 1;
        let rhs = self.aexp()?;
        Ok(BExp::cmp(op, lhs, rhs))
    }

    // ---- statements ----

    fn block(&mut self) -> Result<Reg, ParseError> {
        self.expect(&Tok::LBrace)?;
        if self.peek() == Some(&Tok::RBrace) {
            self.pos += 1;
            return Ok(Reg::skip());
        }
        self.nest()?;
        let body = self.stmts()?;
        self.expect(&Tok::RBrace)?;
        self.depth -= 1;
        Ok(body)
    }

    fn stmts(&mut self) -> Result<Reg, ParseError> {
        let depth = self.depth;
        let mut cmds = vec![self.stmt()?];
        while self.peek() == Some(&Tok::Semi) {
            self.pos += 1;
            // allow trailing semicolon before `}` or end of input
            if self.peek().is_none() || self.peek() == Some(&Tok::RBrace) {
                break;
            }
            self.nest()?;
            cmds.push(self.stmt()?);
        }
        self.depth = depth;
        Ok(Reg::seq_all(cmds))
    }

    fn stmt(&mut self) -> Result<Reg, ParseError> {
        match self.peek() {
            Some(Tok::LBrace) => self.block(),
            Some(Tok::Ident(name)) => match name.as_str() {
                "skip" => {
                    self.pos += 1;
                    Ok(Reg::skip())
                }
                "assume" => {
                    self.pos += 1;
                    Ok(Reg::assume(self.bexp()?))
                }
                "if" => {
                    self.pos += 1;
                    self.expect(&Tok::LParen)?;
                    let b = self.bexp()?;
                    self.expect(&Tok::RParen)?;
                    self.expect_keyword("then")?;
                    let then_c = self.block()?;
                    let else_c = if self.at_keyword("else") {
                        self.pos += 1;
                        self.block()?
                    } else {
                        Reg::skip()
                    };
                    Ok(Reg::ite(b, then_c, else_c))
                }
                "while" => {
                    self.pos += 1;
                    self.expect(&Tok::LParen)?;
                    let b = self.bexp()?;
                    self.expect(&Tok::RParen)?;
                    self.expect_keyword("do")?;
                    let body = self.block()?;
                    Ok(Reg::while_do(b, body))
                }
                "do" => {
                    self.pos += 1;
                    let body = self.block()?;
                    self.expect_keyword("while")?;
                    self.expect(&Tok::LParen)?;
                    let b = self.bexp()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Reg::do_while(body, b))
                }
                "either" => {
                    self.pos += 1;
                    let depth = self.depth;
                    let mut branches = vec![self.block()?];
                    self.expect_keyword("or")?;
                    branches.push(self.block()?);
                    while self.at_keyword("or") {
                        self.pos += 1;
                        self.nest()?;
                        branches.push(self.block()?);
                    }
                    self.depth = depth;
                    let mut it = branches.into_iter();
                    let first = it.next().expect("at least two branches parsed");
                    Ok(it.fold(first, Reg::choice))
                }
                "star" => {
                    self.pos += 1;
                    Ok(self.block()?.star())
                }
                _ if KEYWORDS.contains(&name.as_str()) => {
                    Err(self.err(format!("unexpected keyword `{name}`")))
                }
                _ => {
                    let name = name.clone();
                    self.pos += 1;
                    self.expect(&Tok::Assign)?;
                    if self.peek() == Some(&Tok::Quest) {
                        self.pos += 1;
                        return Ok(Reg::havoc(&name));
                    }
                    let a = self.aexp()?;
                    Ok(Reg::assign(&name, a))
                }
            },
            Some(t) => Err(self.err(format!("expected statement, found {t}"))),
            None => Err(self.err("expected statement, found end of input")),
        }
    }
}

/// Parses a full program in the Imp-like surface syntax into a regular
/// command.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input or
/// nesting deeper than [`MAX_NESTING`].
///
/// # Example
///
/// ```
/// use air_lang::parse_program;
///
/// let p = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
/// assert_eq!(p.vars().len(), 1);
/// ```
pub fn parse_program(src: &str) -> Result<Reg, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        src_len: src.len(),
        depth: 0,
        too_deep: false,
    };
    let r = p.stmts()?;
    if p.pos != p.toks.len() {
        return Err(p.err(format!(
            "trailing input after program: found {}",
            p.peek().expect("pos < len")
        )));
    }
    Ok(r)
}

/// Parses a standalone Boolean expression (useful for specs and inputs).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_bexp(src: &str) -> Result<BExp, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        src_len: src.len(),
        depth: 0,
        too_deep: false,
    };
    let b = p.bexp()?;
    if p.pos != p.toks.len() {
        return Err(p.err("trailing input after boolean expression"));
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Exp;

    #[test]
    fn parses_assignments_and_sequences() {
        let p = parse_program("x := 1; y := x + 2 * 3; z := -y").unwrap();
        assert_eq!(p.basic_count(), 3);
        let names: Vec<String> = p.vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn precedence_of_arithmetic() {
        let p = parse_program("x := 1 + 2 * 3 - 4").unwrap();
        match p {
            Reg::Basic(Exp::Assign(_, a)) => {
                // ((1 + (2*3)) - 4)
                assert_eq!(
                    a,
                    AExp::Num(1)
                        .add(AExp::Num(2).mul(AExp::Num(3)))
                        .sub(AExp::Num(4))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_while_do() {
        let p = parse_program(
            "if (x >= 0) then { skip } else { x := 0 - x }; \
             while (x > 0) do { x := x - 1 }; \
             do { x := x + 1 } while (x < 3)",
        )
        .unwrap();
        assert!(p.size() > 10);
    }

    #[test]
    fn if_without_else_uses_skip() {
        let p = parse_program("if (x = 0) then { x := 1 }").unwrap();
        match p {
            Reg::Choice(_, rhs) => match *rhs {
                Reg::Seq(_, body) => assert_eq!(*body, Reg::skip()),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_either_and_star() {
        let p = parse_program("either { x := 1 } or { x := 2 } or { x := 3 }").unwrap();
        assert_eq!(p.basic_count(), 3);
        assert!(matches!(p, Reg::Choice(_, _)));
        let s = parse_program("star { x := x + 1 }").unwrap();
        assert!(matches!(s, Reg::Star(_)));
    }

    #[test]
    fn parses_assume_and_boolean_operators() {
        let p = parse_program("assume x > 0 && !(y = 2) || true").unwrap();
        match p {
            Reg::Basic(Exp::Assume(BExp::Or(_, rhs))) => assert_eq!(*rhs, BExp::Tt),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parenthesized_comparisons_and_bexps() {
        parse_bexp("(x + 1) < 2").unwrap();
        parse_bexp("((x < 2) && (y >= 0))").unwrap();
        parse_bexp("!(x = y)").unwrap();
        parse_bexp("x != y").unwrap();
    }

    #[test]
    fn comments_and_whitespace() {
        let p = parse_program("# leading comment\n x := 1; # trailing\n y := 2\n").unwrap();
        assert_eq!(p.basic_count(), 2);
    }

    #[test]
    fn trailing_semicolons_allowed() {
        parse_program("x := 1;").unwrap();
        parse_program("while (x > 0) do { x := x - 1; }").unwrap();
    }

    #[test]
    fn error_positions_and_messages() {
        let e = parse_program("x : = 1").unwrap_err();
        assert!(e.message.contains(":="), "{e}");
        let e = parse_program("x := skip").unwrap_err();
        assert!(e.message.contains("keyword"), "{e}");
        let e = parse_program("if x then { skip }").unwrap_err();
        assert!(e.message.contains("`(`"), "{e}");
        let e = parse_program("x := 1 y := 2").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
        let e = parse_program("x := 99999999999999999999").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        let e = parse_program("x := 1 & y").unwrap_err();
        assert!(e.message.contains("&&"), "{e}");
    }

    #[test]
    fn nesting_is_bounded_at_max_nesting() {
        let parens = |n: usize| format!("x := {}x{}", "(".repeat(n), ")".repeat(n));
        let plus = |n: usize| format!("x := x{}", " + 0".repeat(n));
        let skips = |n: usize| format!("{}skip", "skip; ".repeat(n));
        let nots = |n: usize| format!("assume {}x > 0", "!".repeat(n));
        for shape in [parens, plus, skips, nots] {
            assert!(parse_program(&shape(MAX_NESTING)).is_ok());
            let err = parse_program(&shape(MAX_NESTING + 1)).unwrap_err();
            assert!(err.message.contains("nesting deeper"), "{err}");
            assert!(parse_program(&shape(100_000)).is_err());
        }
        // Parenthesized guards backtrack from a comparison to a boolean
        // expression; the bound must survive the backtracking.
        let guard = |n: usize| format!("assume {}x > 0{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_program(&guard(MAX_NESTING)).is_ok());
        let err = parse_program(&guard(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn equality_accepts_single_and_double_equals() {
        assert_eq!(parse_bexp("x = 1").unwrap(), parse_bexp("x == 1").unwrap());
    }

    #[test]
    fn empty_block_is_skip() {
        let p = parse_program("while (x > 0) do { }").unwrap();
        assert_eq!(p.basic_count(), 3);
    }

    #[test]
    fn paper_triangular_program_parses() {
        let p =
            parse_program("i := 1; j := 0; while (i <= 5) do { j := j + i; i := i + 1 }").unwrap();
        // r3 = two assignments; loop = (b?; j:=j+i; i:=i+1)*; exit guard
        assert_eq!(p.basic_count(), 6);
    }
}
