//! Concrete syntax for the Datalog representation.
//!
//! The grammar mirrors the paper's notation: predicates and constants
//! start with lower-case letters, variables with upper-case letters.
//! Statements end with `.`; `%` starts a line comment.
//!
//! ```text
//! fact        :  faculty(#1, "smith", 45).
//! rule        :  asr(X, W) <- takes(X, Y), has_ta(Y, W).
//! constraint  :  ic IC1: Salary > 40000 <- faculty(OID, Salary).
//!                ic: <- person(X), thing(X).          % a denial
//!                ic: not faculty(X) <- retired(X).
//! query       :  Q(Name) <- student(X, Name), Age < 30.
//! ```
//!
//! A statement whose head functor starts with an upper-case letter is a
//! query; the `ic` keyword introduces a constraint; a ground headless atom
//! is a fact; anything else with `<-` is a rule.
//!
//! Constants: integers (`30`), reals (`0.5`), percentages (`10%`, parsed
//! as the real `0.10` — used by the paper's `taxes_withheld(10%)`),
//! double-quoted strings, `true`/`false`, OIDs (`#17`), and bare
//! lower-case identifiers (symbolic constants, stored as strings).

use crate::atom::{Atom, CmpOp, Comparison, Literal};
use crate::clause::{Constraint, ConstraintHead, Query, Rule};
use crate::error::{DatalogError, Result};
use crate::term::{Const, Term, R64};

/// Any top-level statement of the concrete syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A ground fact.
    Fact(Atom),
    /// A rule (view definition).
    Rule(Rule),
    /// An integrity constraint.
    Constraint(Constraint),
    /// A query.
    Query(Query),
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    LIdent(String), // lower-case identifier
    UIdent(String), // upper-case identifier (variable or query name)
    Int(i64),
    Real(f64),
    Str(String),
    Oid(u64),
    LParen,
    RParen,
    Comma,
    Dot,
    Colon,
    Arrow, // <-
    Op(CmpOp),
    Not,
    Ic,
    True,
    False,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> DatalogError {
        DatalogError::Parse {
            message: message.into(),
            line: self.line,
            column: self.col,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// The whole character at the cursor, which must sit on a character
    /// boundary: a string constant holds any UTF-8 text.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += c.len_utf8();
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    /// The character an escape stands for, the backslash already read.
    /// These are the escapes `{:?}` writes, so a string [`Const`] parses
    /// back from its display.
    fn escape(&mut self) -> Result<char> {
        Ok(match self.bump() {
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'0') => '\0',
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'u') if self.peek() == Some(b'{') => {
                self.bump();
                let start = self.pos;
                while self.peek().is_some_and(|d| d.is_ascii_hexdigit()) {
                    self.bump();
                }
                let code = u32::from_str_radix(&self.src[start..self.pos], 16).ok();
                match (code.and_then(char::from_u32), self.bump()) {
                    (Some(c), Some(b'}')) => c,
                    _ => return Err(self.err("invalid `\\u{..}` escape in string")),
                }
            }
            _ => return Err(self.err("invalid escape in string")),
        })
    }

    fn tokens(mut self) -> Result<Vec<Spanned>> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace and comments.
            loop {
                match self.peek() {
                    Some(c) if c.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'%') => {
                        while let Some(c) = self.peek() {
                            if c == b'\n' {
                                break;
                            }
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b':' => {
                    self.bump();
                    Tok::Colon
                }
                b'<' => {
                    self.bump();
                    match self.peek() {
                        Some(b'-') => {
                            self.bump();
                            Tok::Arrow
                        }
                        Some(b'=') => {
                            self.bump();
                            Tok::Op(CmpOp::Le)
                        }
                        _ => Tok::Op(CmpOp::Lt),
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Op(CmpOp::Ge)
                    } else {
                        Tok::Op(CmpOp::Gt)
                    }
                }
                b'=' => {
                    self.bump();
                    Tok::Op(CmpOp::Eq)
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Op(CmpOp::Ne)
                    } else {
                        return Err(self.err("expected `=` after `!`"));
                    }
                }
                b'#' => {
                    self.bump();
                    let mut n: u64 = 0;
                    let mut any = false;
                    while let Some(d) = self.peek() {
                        if d.is_ascii_digit() {
                            n = n * 10 + u64::from(d - b'0');
                            any = true;
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if !any {
                        return Err(self.err("expected digits after `#`"));
                    }
                    Tok::Oid(n)
                }
                b'"' => {
                    self.bump();
                    let mut s = String::new();
                    loop {
                        match self.bump_char() {
                            Some('"') => break,
                            Some('\\') => s.push(self.escape()?),
                            Some(c) => s.push(c),
                            None => return Err(self.err("unterminated string literal")),
                        }
                    }
                    Tok::Str(s)
                }
                c if c.is_ascii_digit()
                    || (c == b'-' && self.peek2().is_some_and(|d| d.is_ascii_digit())) =>
                {
                    let mut text = String::new();
                    if c == b'-' {
                        text.push('-');
                        self.bump();
                    }
                    let mut is_real = false;
                    while let Some(d) = self.peek() {
                        if d.is_ascii_digit() {
                            text.push(d as char);
                            self.bump();
                        } else if d == b'.'
                            && !is_real
                            && self.peek2().is_some_and(|e| e.is_ascii_digit())
                        {
                            is_real = true;
                            text.push('.');
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if self.peek() == Some(b'%') {
                        self.bump();
                        let v: f64 = text
                            .parse()
                            .map_err(|_| self.err(format!("invalid number `{text}`")))?;
                        Tok::Real(v / 100.0)
                    } else if is_real {
                        let v: f64 = text
                            .parse()
                            .map_err(|_| self.err(format!("invalid number `{text}`")))?;
                        Tok::Real(v)
                    } else {
                        let v: i64 = text
                            .parse()
                            .map_err(|_| self.err(format!("invalid integer `{text}`")))?;
                        Tok::Int(v)
                    }
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let mut s = String::new();
                    while let Some(d) = self.peek() {
                        if d.is_ascii_alphanumeric() || d == b'_' {
                            s.push(d as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    match s.as_str() {
                        "not" => Tok::Not,
                        "ic" => Tok::Ic,
                        "true" => Tok::True,
                        "false" => Tok::False,
                        _ if s.starts_with(|ch: char| ch.is_ascii_uppercase()) => Tok::UIdent(s),
                        _ => Tok::LIdent(s),
                    }
                }
                other => return Err(self.err(format!("unexpected character `{}`", other as char))),
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn err_at(&self, message: impl Into<String>) -> DatalogError {
        let (line, column) = self
            .toks
            .get(self.pos)
            .map(|s| (s.line, s.col))
            .unwrap_or_else(|| {
                self.toks
                    .last()
                    .map(|s| (s.line, s.col + 1))
                    .unwrap_or((1, 1))
            });
        DatalogError::Parse {
            message: message.into(),
            line,
            column,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_at(format!("expected {what}")))
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn term(&mut self) -> Result<Term> {
        match self.bump() {
            Some(Tok::UIdent(v)) => Ok(Term::var(v)),
            Some(Tok::LIdent(s)) => Ok(Term::str(s)),
            Some(Tok::Int(i)) => Ok(Term::int(i)),
            Some(Tok::Real(r)) => Ok(Term::Const(Const::Real(R64::new(r)))),
            Some(Tok::Str(s)) => Ok(Term::str(s)),
            Some(Tok::Oid(o)) => Ok(Term::oid(o)),
            Some(Tok::True) => Ok(Term::Const(Const::Bool(true))),
            Some(Tok::False) => Ok(Term::Const(Const::Bool(false))),
            _ => Err(self.err_at("expected a term")),
        }
    }

    fn args(&mut self) -> Result<Vec<Term>> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut out = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.term()?);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(self.err_at("expected `,` or `)`")),
            }
        }
        Ok(out)
    }

    fn atom(&mut self, name: String) -> Result<Atom> {
        let args = self.args()?;
        Ok(Atom::new(name, args))
    }

    /// A body literal: `p(..)`, `not p(..)`, or `t1 θ t2`.
    fn literal(&mut self) -> Result<Literal> {
        if self.peek() == Some(&Tok::Not) {
            self.pos += 1;
            let Some(Tok::LIdent(name)) = self.bump() else {
                return Err(self.err_at("expected predicate after `not`"));
            };
            return Ok(Literal::Neg(self.atom(name)?));
        }
        // Predicate atom iff a lower-case identifier followed by `(`.
        if let Some(Tok::LIdent(name)) = self.peek().cloned() {
            if self.toks.get(self.pos + 1).map(|s| &s.tok) == Some(&Tok::LParen) {
                self.pos += 1;
                return Ok(Literal::Pos(self.atom(name)?));
            }
        }
        // Otherwise a comparison.
        let lhs = self.term()?;
        let Some(Tok::Op(op)) = self.bump() else {
            return Err(self.err_at("expected a comparison operator"));
        };
        let rhs = self.term()?;
        Ok(Literal::Cmp(Comparison::new(lhs, op, rhs)))
    }

    fn body(&mut self) -> Result<Vec<Literal>> {
        let mut out = vec![self.literal()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            out.push(self.literal()?);
        }
        Ok(out)
    }

    fn constraint_head(&mut self) -> Result<ConstraintHead> {
        if self.peek() == Some(&Tok::Arrow) {
            return Ok(ConstraintHead::None);
        }
        if self.peek() == Some(&Tok::Not) {
            self.pos += 1;
            let Some(Tok::LIdent(p)) = self.bump() else {
                return Err(self.err_at("expected predicate after `not`"));
            };
            return Ok(ConstraintHead::NegAtom(self.atom(p)?));
        }
        if let Some(Tok::LIdent(p)) = self.peek().cloned() {
            if self.toks.get(self.pos + 1).map(|s| &s.tok) == Some(&Tok::LParen) {
                self.pos += 1;
                return Ok(ConstraintHead::Atom(self.atom(p)?));
            }
        }
        let lhs = self.term()?;
        let Some(Tok::Op(op)) = self.bump() else {
            return Err(self.err_at("expected a comparison operator"));
        };
        let rhs = self.term()?;
        Ok(ConstraintHead::Cmp(Comparison::new(lhs, op, rhs)))
    }

    fn statement(&mut self) -> Result<Statement> {
        let stmt = match self.peek().cloned() {
            Some(Tok::Ic) => {
                self.pos += 1;
                // Optional name before `:`.
                let name = match self.peek().cloned() {
                    Some(Tok::UIdent(n)) | Some(Tok::LIdent(n))
                        if self.toks.get(self.pos + 1).map(|s| &s.tok) == Some(&Tok::Colon) =>
                    {
                        self.pos += 1;
                        Some(n)
                    }
                    _ => None,
                };
                self.expect(&Tok::Colon, "`:` after `ic`")?;
                let head = self.constraint_head()?;
                self.expect(&Tok::Arrow, "`<-`")?;
                let body = self.body()?;
                Statement::Constraint(Constraint { name, head, body })
            }
            Some(Tok::UIdent(qname)) => {
                // Query: Q(projection) <- body.
                self.pos += 1;
                let projection = self.args()?;
                self.expect(&Tok::Arrow, "`<-`")?;
                let body = self.body()?;
                Statement::Query(Query::new(qname.to_lowercase(), projection, body))
            }
            Some(Tok::LIdent(p)) => {
                self.pos += 1;
                let head = self.atom(p)?;
                if self.peek() == Some(&Tok::Arrow) {
                    self.pos += 1;
                    let body = self.body()?;
                    Statement::Rule(Rule::new(head, body))
                } else {
                    if !head.is_ground() {
                        return Err(DatalogError::NonGroundFact {
                            fact: head.to_string(),
                        });
                    }
                    Statement::Fact(head)
                }
            }
            _ => return Err(self.err_at("expected a statement")),
        };
        self.expect(&Tok::Dot, "`.` at end of statement")?;
        Ok(stmt)
    }
}

/// Parse a whole program (any mix of statements).
pub fn parse_program(src: &str) -> Result<Vec<Statement>> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser { toks, pos: 0 };
    let mut out = Vec::new();
    while !p.at_end() {
        out.push(p.statement()?);
    }
    Ok(out)
}

fn single(src: &str) -> Result<Statement> {
    // Forgive a missing trailing dot for single-statement convenience.
    let owned;
    let src = if src.trim_end().ends_with('.') {
        src
    } else {
        owned = format!("{src}.");
        &owned
    };
    let mut stmts = parse_program(src)?;
    if stmts.len() != 1 {
        return Err(DatalogError::Parse {
            message: format!("expected exactly one statement, found {}", stmts.len()),
            line: 1,
            column: 1,
        });
    }
    Ok(stmts.remove(0))
}

/// Parse a single query, e.g. `Q(Name) <- person(X, Name, Age), Age < 30`.
///
/// A lower-case head (the form produced by [`Query`]'s `Display`) is also
/// accepted and converted, so display/parse round-trips.
pub fn parse_query(src: &str) -> Result<Query> {
    match single(src)? {
        Statement::Query(q) => Ok(q),
        Statement::Rule(r) => Ok(Query::new(
            r.head.pred.name().to_string(),
            r.head.args,
            r.body,
        )),
        other => Err(DatalogError::Parse {
            message: format!("expected a query, found {other:?}"),
            line: 1,
            column: 1,
        }),
    }
}

/// Parse a single integrity constraint. The `ic [name]:` prefix is
/// optional.
pub fn parse_constraint(src: &str) -> Result<Constraint> {
    let trimmed = src.trim_start();
    let owned;
    let src2 = if trimmed.starts_with("ic ") || trimmed.starts_with("ic:") {
        src
    } else {
        owned = format!("ic: {src}");
        &owned
    };
    match single(src2)? {
        Statement::Constraint(c) => Ok(c),
        other => Err(DatalogError::Parse {
            message: format!("expected a constraint, found {other:?}"),
            line: 1,
            column: 1,
        }),
    }
}

/// Parse a single rule (view definition).
pub fn parse_rule(src: &str) -> Result<Rule> {
    match single(src)? {
        Statement::Rule(r) => Ok(r),
        other => Err(DatalogError::Parse {
            message: format!("expected a rule, found {other:?}"),
            line: 1,
            column: 1,
        }),
    }
}

/// Parse a single ground fact.
pub fn parse_fact(src: &str) -> Result<Atom> {
    match single(src)? {
        Statement::Fact(f) => Ok(f),
        other => Err(DatalogError::Parse {
            message: format!("expected a fact, found {other:?}"),
            line: 1,
            column: 1,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_example1_query() {
        let q = parse_query(
            "Q(Name) <- student(St_id, Name), takes_section(St_id, Sec), \
             faculty(Sec, Fac_id, Age), Age < 18",
        )
        .unwrap();
        assert_eq!(q.name, "q");
        assert_eq!(q.projection.len(), 1);
        assert_eq!(q.body.len(), 4);
        assert_eq!(
            q.to_string(),
            "q(Name) <- student(St_id, Name), takes_section(St_id, Sec), \
             faculty(Sec, Fac_id, Age), Age < 18"
        );
    }

    #[test]
    fn parse_paper_ic1() {
        let ic = parse_constraint("ic IC1: Salary > 40000 <- faculty(OID, Salary).").unwrap();
        assert_eq!(ic.name.as_deref(), Some("IC1"));
        assert!(matches!(&ic.head, ConstraintHead::Cmp(c) if c.op == CmpOp::Gt));
        assert_eq!(ic.body.len(), 1);
    }

    #[test]
    fn parse_unnamed_constraint_without_prefix() {
        let ic = parse_constraint("Age >= 30 <- faculty(X, Name, Age)").unwrap();
        assert!(ic.name.is_none());
        assert!(matches!(&ic.head, ConstraintHead::Cmp(_)));
    }

    #[test]
    fn parse_denial() {
        let ic = parse_constraint("ic: <- person(X), robot(X).").unwrap();
        assert_eq!(ic.head, ConstraintHead::None);
        assert_eq!(ic.body.len(), 2);
    }

    #[test]
    fn parse_neg_head_constraint() {
        let ic =
            parse_constraint("ic IC6: not faculty(X, N, A) <- person(X, N, A), A < 30.").unwrap();
        assert!(matches!(&ic.head, ConstraintHead::NegAtom(a) if a.pred.name() == "faculty"));
        assert_eq!(ic.name.as_deref(), Some("IC6"));
    }

    #[test]
    fn parse_atom_head_constraint() {
        let ic = parse_constraint("ic IC5: person(X, N, A) <- faculty(X, N, A).").unwrap();
        assert!(matches!(&ic.head, ConstraintHead::Atom(_)));
    }

    #[test]
    fn parse_rule_with_chain() {
        let r = parse_rule(
            "asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W)",
        )
        .unwrap();
        assert_eq!(r.head.pred.name(), "asr");
        assert_eq!(r.body.len(), 4);
        assert!(r.is_safe());
    }

    #[test]
    fn parse_fact_kinds() {
        let f = parse_fact(r#"faculty(#1, "smith", 45)"#).unwrap();
        assert_eq!(f.args[0], Term::oid(1));
        assert_eq!(f.args[1], Term::str("smith"));
        assert_eq!(f.args[2], Term::int(45));
        let g = parse_fact("flag(true, -3, 2.5)").unwrap();
        assert_eq!(g.args[0], Term::Const(Const::Bool(true)));
        assert_eq!(g.args[1], Term::int(-3));
        assert_eq!(g.args[2], Term::real(2.5));
    }

    #[test]
    fn percent_literal_is_a_rate() {
        let q = parse_query("Q(V) <- taxes_withheld(Z, 10%, V), V < 1000").unwrap();
        let Literal::Pos(a) = &q.body[0] else {
            panic!()
        };
        assert_eq!(a.args[1], Term::real(0.10));
    }

    #[test]
    fn non_ground_fact_rejected() {
        assert!(matches!(
            parse_fact("faculty(X, 45)"),
            Err(DatalogError::NonGroundFact { .. })
        ));
    }

    #[test]
    fn negative_body_literal() {
        let q = parse_query("Q(N) <- person(X, N, A), A < 30, not faculty(X, N, A)").unwrap();
        assert!(matches!(&q.body[2], Literal::Neg(a) if a.pred.name() == "faculty"));
    }

    #[test]
    fn comments_and_whitespace() {
        let stmts = parse_program(
            "% the whole database\nfaculty(#1, \"a\").\n  % another\n\nfaculty(#2, \"b\").",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn symbolic_lowercase_constant_in_args() {
        let f = parse_fact("likes(john, mary)").unwrap();
        assert_eq!(f.args[0], Term::str("john"));
    }

    #[test]
    fn operators_all_parse() {
        let q =
            parse_query("Q(X) <- p(X, A, B), A = 1, A != 2, A < B, A <= B, A > 0, A >= 0").unwrap();
        assert_eq!(q.body.len(), 7);
    }

    #[test]
    fn parse_error_positions() {
        let err = parse_query("Q(X) <- p(X,").unwrap_err();
        match err {
            DatalogError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected: {other}"),
        }
        assert!(parse_query("Q(X) <- ").is_err());
        assert!(parse_program("p(x)!").is_err());
    }

    #[test]
    fn roundtrip_display_parse() {
        let srcs = [
            "q(Name) <- person(X, Name, Age), Age < 30",
            "q(W) <- student(X, Name), asr(X, W), Name = \"james\"",
            "q() <- p(X), not r(X)",
        ];
        for s in srcs {
            let q = parse_query(s).unwrap();
            let q2 = parse_query(&q.to_string()).unwrap();
            assert_eq!(q, q2, "roundtrip failed for {s}");
        }
    }

    #[test]
    fn program_mix_classifies_statements() {
        let stmts = parse_program(
            "faculty(#1, \"smith\").\n\
             asr(X, W) <- takes(X, Y), has_ta(Y, W).\n\
             ic IC1: Salary > 40000 <- faculty(O, Salary).\n\
             Q(X) <- faculty(X, N).",
        )
        .unwrap();
        assert!(matches!(stmts[0], Statement::Fact(_)));
        assert!(matches!(stmts[1], Statement::Rule(_)));
        assert!(matches!(stmts[2], Statement::Constraint(_)));
        assert!(matches!(stmts[3], Statement::Query(_)));
    }

    #[test]
    fn query_name_lowercased_roundtrip() {
        let q = parse_query("MyQuery(X) <- p(X)").unwrap();
        assert_eq!(q.name, "myquery");
    }
}
