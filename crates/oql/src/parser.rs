//! Lexer and recursive-descent parser for the OQL subset.
//!
//! Accepts the paper's layout, where `from` entries may be separated by
//! commas *or* just whitespace/newlines:
//!
//! ```text
//! select z.name, w.city
//! from x in Student
//!      y in x.takes
//!      z in y.is_taught_by
//!      w in z.address
//! where x.name = "john" and z.taxes_withheld(10%) < 1000
//! ```

use crate::ast::*;
use crate::error::{OqlError, Result};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Real(f64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Colon,
    Op(CmpOp),
    KwSelect,
    KwDistinct,
    KwFrom,
    KwWhere,
    KwIn,
    KwNot,
    KwAnd,
    KwTrue,
    KwFalse,
    KwStruct,
    KwList,
    KwSet,
    KwBag,
    KwExists,
    KwUnion,
}

/// Why `or` is refused.
const OR_UNSUPPORTED: &str = "`or` is outside the supported conjunctive subset (Section 4.3)";

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

    fn err(&self, message: impl Into<String>) -> OqlError {
        OqlError::Parse {
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
    /// boundary: a string literal holds any UTF-8 text.
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

    /// The error for a character no token starts with.
    fn unexpected(&self) -> OqlError {
        let rest = self.src.get(self.pos..).unwrap_or_default();
        let ch = rest.chars().next().unwrap_or_default();
        self.err(format!("unexpected character `{ch}`"))
    }

    /// Whether the byte after the one at the cursor is a digit.
    fn digit_next(&self) -> bool {
        self.peek2().is_some_and(|d| d.is_ascii_digit())
    }

    /// The character an escape in a string quoted by `quote` stands for,
    /// the backslash already read. These are the escapes `{:?}` writes,
    /// so a [`Literal::Str`] parses back from its display.
    fn escape(&mut self, quote: u8) -> Result<char> {
        Ok(match self.bump() {
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'0') => '\0',
            Some(b'\\') => '\\',
            Some(q) if q == quote => q as char,
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
            loop {
                match self.peek() {
                    Some(c) if c.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'-') if self.peek2() == Some(b'-') => {
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
                b'=' => {
                    self.bump();
                    Tok::Op(CmpOp::Eq)
                }
                b'<' => {
                    self.bump();
                    match self.peek() {
                        Some(b'=') => {
                            self.bump();
                            Tok::Op(CmpOp::Le)
                        }
                        Some(b'>') => {
                            self.bump();
                            Tok::Op(CmpOp::Ne)
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
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Op(CmpOp::Ne)
                    } else {
                        return Err(self.err("expected `=` after `!`"));
                    }
                }
                b'"' | b'\'' => {
                    let quote = c;
                    self.bump();
                    let mut s = String::new();
                    loop {
                        match self.bump_char() {
                            Some(q) if q == quote as char => break,
                            Some('\\') => s.push(self.escape(quote)?),
                            Some(ch) => s.push(ch),
                            None => return Err(self.err("unterminated string literal")),
                        }
                    }
                    Tok::Str(s)
                }
                c if c.is_ascii_digit() || c == b'-' && self.digit_next() => {
                    let mut text = String::from(c as char);
                    self.bump();
                    let mut is_real = false;
                    while let Some(d) = self.peek() {
                        if d.is_ascii_digit() {
                            text.push(d as char);
                            self.bump();
                        } else if d == b'.' && !is_real && self.digit_next() {
                            is_real = true;
                            text.push('.');
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let percent = self.peek() == Some(b'%');
                    if percent || is_real {
                        if percent {
                            self.bump();
                        }
                        // A literal too large for an `f64` is an error,
                        // not an infinity no literal could write back.
                        let v = text
                            .parse::<f64>()
                            .ok()
                            .filter(|v| v.is_finite())
                            .ok_or_else(|| self.err(format!("invalid number `{text}`")))?;
                        Tok::Real(if percent { v / 100.0 } else { v })
                    } else {
                        Tok::Int(
                            text.parse()
                                .map_err(|_| self.err(format!("invalid integer `{text}`")))?,
                        )
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
                    match s.to_ascii_lowercase().as_str() {
                        "select" => Tok::KwSelect,
                        "distinct" => Tok::KwDistinct,
                        "from" => Tok::KwFrom,
                        "where" => Tok::KwWhere,
                        "in" => Tok::KwIn,
                        "not" => Tok::KwNot,
                        "and" => Tok::KwAnd,
                        "true" => Tok::KwTrue,
                        "false" => Tok::KwFalse,
                        "struct" => Tok::KwStruct,
                        "list" => Tok::KwList,
                        "set" => Tok::KwSet,
                        "bag" => Tok::KwBag,
                        "exists" => Tok::KwExists,
                        "union" => Tok::KwUnion,
                        "or" => return Err(self.err(OR_UNSUPPORTED)),
                        _ => Tok::Ident(s),
                    }
                }
                _ => return Err(self.unexpected()),
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

/// The deepest nesting of method-call arguments (`x.m(x.m(…))`) the
/// parser accepts. Queries nest one or two deep; the bound keeps the
/// parser's recursion, and the parsed path's recursive drop, far inside
/// the calling thread's stack whatever a query text holds.
pub const MAX_CALL_DEPTH: usize = 64;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Method-call argument lists open around `pos`.
    depth: usize,
}

impl Parser {
    fn err_at(&self, message: impl Into<String>) -> OqlError {
        let (line, column) = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| (s.line, s.col))
            .unwrap_or((1, 1));
        OqlError::Parse {
            message: message.into(),
            line,
            column,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek_at(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.pos + off).map(|s| &s.tok)
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

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(self.err_at(format!("expected {what}"))),
        }
    }

    fn literal(&mut self) -> Result<Literal> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Literal::Int(v)),
            Some(Tok::Real(v)) => Ok(Literal::Real(v)),
            Some(Tok::Str(s)) => Ok(Literal::Str(s)),
            Some(Tok::KwTrue) => Ok(Literal::Bool(true)),
            Some(Tok::KwFalse) => Ok(Literal::Bool(false)),
            _ => Err(self.err_at("expected a literal")),
        }
    }

    fn path_expr(&mut self) -> Result<PathExpr> {
        let root = self.ident("an identifier")?;
        let mut steps = Vec::new();
        while self.peek() == Some(&Tok::Dot) {
            self.pos += 1;
            let name = self.ident("a member name after `.`")?;
            if self.peek() == Some(&Tok::LParen) {
                self.pos += 1;
                if self.depth == MAX_CALL_DEPTH {
                    return Err(
                        self.err_at(format!("method calls nest deeper than {MAX_CALL_DEPTH}"))
                    );
                }
                self.depth += 1;
                let args = self.call_args();
                self.depth -= 1;
                let args = args?;
                self.expect(&Tok::RParen, "`)`")?;
                steps.push(PathStep::MethodCall { name, args });
            } else {
                steps.push(PathStep::Member(name));
            }
        }
        Ok(PathExpr { root, steps })
    }

    fn call_args(&mut self) -> Result<Vec<Expr>> {
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                args.push(self.expr()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        Ok(args)
    }

    fn expr(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(Tok::Ident(_)) => Ok(Expr::Path(self.path_expr()?)),
            _ => Ok(Expr::Lit(self.literal()?)),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let kind = match self.peek() {
            Some(Tok::KwStruct) => Some(ConstructorKind::Struct),
            Some(Tok::KwList) => Some(ConstructorKind::List),
            Some(Tok::KwSet) => Some(ConstructorKind::Set),
            Some(Tok::KwBag) => Some(ConstructorKind::Bag),
            _ => None,
        };
        let Some(kind) = kind else {
            return Ok(SelectItem::Expr(self.expr()?));
        };
        self.pos += 1;
        self.expect(&Tok::LParen, "`(`")?;
        let mut fields = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                // Optional `label:` (struct only).
                let label = if matches!(self.peek(), Some(Tok::Ident(_)))
                    && self.peek_at(1) == Some(&Tok::Colon)
                {
                    let l = self.ident("a label")?;
                    self.pos += 1; // colon
                    Some(l)
                } else {
                    None
                };
                if label.is_some() && kind != ConstructorKind::Struct {
                    return Err(self.err_at("labels are only allowed in struct constructors"));
                }
                let expr = self.expr()?;
                fields.push(SelectField { label, expr });
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        Ok(SelectItem::Constructor { kind, fields })
    }

    #[allow(clippy::wrong_self_convention)] // parses a `from` clause entry
    fn from_entry(&mut self) -> Result<FromEntry> {
        let var = self.ident("an iteration variable")?;
        match self.peek() {
            Some(Tok::KwIn) => {
                self.pos += 1;
                // `Extent` (bare identifier) or a path rooted at a var.
                let p = self.path_expr()?;
                let source = if p.steps.is_empty() {
                    Source::Extent(p.root)
                } else {
                    Source::Path(p)
                };
                Ok(FromEntry::In { var, source })
            }
            Some(Tok::KwNot) => {
                self.pos += 1;
                self.expect(&Tok::KwIn, "`in` after `not`")?;
                let p = self.path_expr()?;
                let source = if p.steps.is_empty() {
                    Source::Extent(p.root)
                } else {
                    Source::Path(p)
                };
                Ok(FromEntry::NotIn { var, source })
            }
            _ => Err(self.err_at("expected `in` or `not in`")),
        }
    }

    fn predicate(&mut self) -> Result<Predicate> {
        let lhs = self.expr()?;
        let Some(Tok::Op(op)) = self.bump() else {
            return Err(self.err_at("expected a comparison operator"));
        };
        let rhs = self.expr()?;
        Ok(Predicate { lhs, op, rhs })
    }

    /// `exists v in source : pred` or `exists v in source : (p1 and p2)`.
    fn exists_clause(&mut self) -> Result<ExistsClause> {
        self.expect(&Tok::KwExists, "`exists`")?;
        let var = self.ident("an iteration variable")?;
        self.expect(&Tok::KwIn, "`in`")?;
        let p = self.path_expr()?;
        let source = if p.steps.is_empty() {
            Source::Extent(p.root)
        } else {
            Source::Path(p)
        };
        self.expect(&Tok::Colon, "`:` after the exists range")?;
        let mut conds = Vec::new();
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            conds.push(self.predicate()?);
            while self.peek() == Some(&Tok::KwAnd) {
                self.pos += 1;
                conds.push(self.predicate()?);
            }
            self.expect(&Tok::RParen, "`)`")?;
        } else {
            conds.push(self.predicate()?);
        }
        Ok(ExistsClause { var, source, conds })
    }

    fn query(&mut self) -> Result<SelectQuery> {
        let q = self.query_until_union()?;
        if !self.at_end() {
            return Err(self.err_at("unexpected trailing input"));
        }
        Ok(q)
    }

    fn query_until_union(&mut self) -> Result<SelectQuery> {
        // Identical to query() but without the trailing-input check.
        self.expect(&Tok::KwSelect, "`select`")?;
        let distinct = if self.peek() == Some(&Tok::KwDistinct) {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut select = vec![self.select_item()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            select.push(self.select_item()?);
        }
        self.expect(&Tok::KwFrom, "`from`")?;
        let mut from = vec![self.from_entry()?];
        loop {
            match self.peek() {
                Some(Tok::Comma) => {
                    self.pos += 1;
                    from.push(self.from_entry()?);
                }
                Some(Tok::Ident(_)) => {
                    from.push(self.from_entry()?);
                }
                _ => break,
            }
        }
        let mut where_ = Vec::new();
        let mut exists = Vec::new();
        if self.peek() == Some(&Tok::KwWhere) {
            self.pos += 1;
            loop {
                if self.peek() == Some(&Tok::KwExists) {
                    exists.push(self.exists_clause()?);
                } else {
                    where_.push(self.predicate()?);
                }
                if self.peek() == Some(&Tok::KwAnd) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        Ok(SelectQuery {
            distinct,
            select,
            from,
            where_,
            exists,
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }
}

/// Parse an OQL select-from-where query.
pub fn parse_oql(src: &str) -> Result<SelectQuery> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    validate_scopes(&q)?;
    Ok(q)
}

/// Parse a top-level `union` of select-from-where queries (Section 4.3
/// notes set expressions "can be represented in DATALOG"; each branch is
/// optimized independently and contradictory branches are pruned).
/// A single query parses as a one-branch union.
pub fn parse_oql_union(src: &str) -> Result<Vec<SelectQuery>> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut out = vec![p.query_until_union()?];
    while p.peek() == Some(&Tok::KwUnion) {
        p.pos += 1;
        out.push(p.query_until_union()?);
    }
    if !p.at_end() {
        return Err(p.err_at("unexpected trailing input"));
    }
    for q in &out {
        validate_scopes(q)?;
    }
    Ok(out)
}

/// Check from-clause scoping: every path root refers to a declared
/// variable, declared before use; no duplicate declarations; `not in`
/// variables must already be bound.
fn validate_scopes(q: &SelectQuery) -> Result<()> {
    let mut bound: Vec<&str> = Vec::new();
    for e in &q.from {
        match e {
            FromEntry::In { var, source } => {
                if let Source::Path(p) = source {
                    if !bound.contains(&p.root.as_str()) {
                        return Err(OqlError::UnknownVariable {
                            name: p.root.clone(),
                        });
                    }
                }
                if bound.contains(&var.as_str()) {
                    return Err(OqlError::DuplicateVariable { name: var.clone() });
                }
                bound.push(var);
            }
            FromEntry::NotIn { var, .. } => {
                if !bound.contains(&var.as_str()) {
                    return Err(OqlError::UnknownVariable { name: var.clone() });
                }
            }
        }
    }
    for e in &q.exists {
        match &e.source {
            Source::Path(p) if !bound.contains(&p.root.as_str()) => {
                return Err(OqlError::UnknownVariable {
                    name: p.root.clone(),
                });
            }
            _ => {}
        }
        if bound.contains(&e.var.as_str()) {
            return Err(OqlError::DuplicateVariable {
                name: e.var.clone(),
            });
        }
        bound.push(&e.var);
    }
    let check_expr = |e: &Expr| -> Result<()> {
        if let Expr::Path(p) = e {
            if !bound.contains(&p.root.as_str()) {
                return Err(OqlError::UnknownVariable {
                    name: p.root.clone(),
                });
            }
        }
        Ok(())
    };
    for item in &q.select {
        match item {
            SelectItem::Expr(e) => check_expr(e)?,
            SelectItem::Constructor { fields, .. } => {
                for f in fields {
                    check_expr(&f.expr)?;
                }
            }
        }
    }
    for p in &q.where_ {
        check_expr(&p.lhs)?;
        check_expr(&p.rhs)?;
    }
    for e in &q.exists {
        for p in &e.conds {
            check_expr(&p.lhs)?;
            check_expr(&p.rhs)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The query of Example 2 in the paper (Section 4.3).
    pub const EXAMPLE2: &str = r#"
        select z.name, w.city
        from x in Student
             y in x.takes
             z in y.is_taught_by
             w in z.address
        where x.name = "john" and z.taxes_withheld(10%) < 1000
    "#;

    #[test]
    fn parse_example2() {
        let q = parse_oql(EXAMPLE2).unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from.len(), 4);
        assert_eq!(q.where_.len(), 2);
        assert_eq!(q.declared_vars(), vec!["x", "y", "z", "w"]);
        // Method call with a percentage argument.
        let Predicate { lhs, .. } = &q.where_[1];
        let Expr::Path(p) = lhs else { panic!() };
        let PathStep::MethodCall { name, args } = &p.steps[0] else {
            panic!()
        };
        assert_eq!(name, "taxes_withheld");
        assert_eq!(args, &vec![Expr::Lit(Literal::Real(0.10))]);
    }

    #[test]
    fn parse_comma_separated_from() {
        let q = parse_oql("select x.name from x in Person, y in x.takes where x.age < 30").unwrap();
        assert_eq!(q.from.len(), 2);
    }

    #[test]
    fn parse_application2_output_shape() {
        let q =
            parse_oql("select x.name from x in Person x not in Faculty where x.age < 30").unwrap();
        assert_eq!(q.from.len(), 2);
        assert!(
            matches!(&q.from[1], FromEntry::NotIn { var, source: Source::Extent(c) }
            if var == "x" && c == "Faculty")
        );
    }

    #[test]
    fn parse_list_constructor() {
        let q = parse_oql("select list(x.student_id, t.employee_id) from x in Student, t in TA")
            .unwrap();
        let SelectItem::Constructor { kind, fields } = &q.select[0] else {
            panic!()
        };
        assert_eq!(*kind, ConstructorKind::List);
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn parse_struct_constructor_with_labels() {
        let q = parse_oql("select struct(n: x.name, c: x.address.city) from x in Person").unwrap();
        let SelectItem::Constructor { kind, fields } = &q.select[0] else {
            panic!()
        };
        assert_eq!(*kind, ConstructorKind::Struct);
        assert_eq!(fields[0].label.as_deref(), Some("n"));
    }

    #[test]
    fn labels_rejected_outside_struct() {
        assert!(parse_oql("select list(n: x.name) from x in Person").is_err());
    }

    #[test]
    fn long_path_in_where() {
        let q =
            parse_oql("select x.name from x in Student where x.takes.is_taught_by.name = \"a\"")
                .unwrap();
        let Expr::Path(p) = &q.where_[0].lhs else {
            panic!()
        };
        assert_eq!(p.steps.len(), 3);
        assert!(!p.is_one_dot());
    }

    #[test]
    fn undeclared_variable_rejected() {
        assert!(matches!(
            parse_oql("select z.name from x in Person"),
            Err(OqlError::UnknownVariable { name }) if name == "z"
        ));
        assert!(matches!(
            parse_oql("select x.name from y in x.takes"),
            Err(OqlError::UnknownVariable { .. })
        ));
        assert!(matches!(
            parse_oql("select x.name from x in Person x in Faculty"),
            Err(OqlError::DuplicateVariable { .. })
        ));
        assert!(matches!(
            parse_oql("select x.name from x in Person z not in Faculty"),
            Err(OqlError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn or_is_rejected_as_unsupported() {
        let err =
            parse_oql("select x.name from x in Person where x.age < 30 or x.age > 60").unwrap_err();
        assert!(matches!(err, OqlError::Parse { .. }));
    }

    #[test]
    fn distinct_flag() {
        let q = parse_oql("select distinct x.name from x in Person").unwrap();
        assert!(q.distinct);
    }

    #[test]
    fn ne_operator_spellings() {
        for src in [
            "select x.name from x in Person where x.age != 30",
            "select x.name from x in Person where x.age <> 30",
        ] {
            let q = parse_oql(src).unwrap();
            assert_eq!(q.where_[0].op, CmpOp::Ne);
        }
    }

    #[test]
    fn display_roundtrip() {
        let srcs = [
            EXAMPLE2,
            "select x.name from x in Person x not in Faculty where x.age < 30",
            "select list(x.student_id, t.employee_id) from x in Student, t in TA",
        ];
        for s in srcs {
            let q = parse_oql(s).unwrap();
            let q2 = parse_oql(&q.to_string()).unwrap();
            assert_eq!(q, q2, "roundtrip failed for: {s}");
        }
    }

    #[test]
    fn literals_read_what_display_writes() {
        let q = parse_oql(
            "select x from x in P where x.a = \"é\\r\\0\\u{1}\\\"\" and x.b > -5 and x.c < -0.5",
        )
        .unwrap();
        let rhs: Vec<String> = q.where_.iter().map(|p| p.rhs.to_string()).collect();
        assert_eq!(rhs, [r#""é\r\0\u{1}\"""#, "-5", "-0.5"]);
        assert_eq!(
            q.where_[0].rhs,
            Expr::Lit(Literal::Str("é\r\0\u{1}\"".into()))
        );
        // An escape naming no character, and a real no `f64` holds.
        assert!(parse_oql(r#"select x from x in P where x.a = "\u{d800}""#).is_err());
        let huge = format!("select x from x in P where x.a < 1{}.0", "0".repeat(400));
        assert!(parse_oql(&huge).is_err());
        assert!(parse_oql("select x from x in P where x.a < é").is_err());
    }

    #[test]
    fn exists_single_predicate() {
        let q = parse_oql(
            "select x.name from x in Student where exists s in x.takes : s.number = \"a\"",
        )
        .unwrap();
        assert_eq!(q.exists.len(), 1);
        assert_eq!(q.exists[0].var, "s");
        assert_eq!(q.exists[0].conds.len(), 1);
        assert_eq!(
            q.to_string(),
            "select x.name\nfrom x in Student\nwhere exists s in x.takes : (s.number = \"a\")"
        );
    }

    #[test]
    fn exists_parenthesized_conjunction() {
        let q = parse_oql(
            "select x.name from x in Student \
             where x.age < 30 and exists s in x.takes : (s.number = \"a\" and x.age > 20)",
        )
        .unwrap();
        assert_eq!(q.where_.len(), 1);
        assert_eq!(q.exists[0].conds.len(), 2);
    }

    #[test]
    fn exists_over_extent() {
        let q =
            parse_oql("select x.name from x in Person where exists f in Faculty : f.name = x.name")
                .unwrap();
        assert!(matches!(&q.exists[0].source, Source::Extent(c) if c == "Faculty"));
    }

    #[test]
    fn exists_scoping_checked() {
        assert!(matches!(
            parse_oql(
                "select x.name from x in Person where exists s in z.takes : s.number = \"a\""
            ),
            Err(OqlError::UnknownVariable { .. })
        ));
        assert!(matches!(
            parse_oql("select x.name from x in Person where exists x in Faculty : x.age > 1"),
            Err(OqlError::DuplicateVariable { .. })
        ));
        // Inner condition may reference outer variables.
        assert!(parse_oql(
            "select x.name from x in Student where exists s in x.takes : s.number != x.name"
        )
        .is_ok());
    }

    #[test]
    fn union_of_branches() {
        let branches = parse_oql_union(
            "select x.name from x in Student where x.age < 20 \
             union select x.name from x in Faculty where x.age > 60",
        )
        .unwrap();
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].from.len(), 1);
        assert_eq!(branches[1].where_[0].to_string(), "x.age > 60");
        // A single query is a one-branch union.
        assert_eq!(
            parse_oql_union("select x from x in Person").unwrap().len(),
            1
        );
        // Branches are scope-checked independently.
        assert!(
            parse_oql_union("select x from x in Person union select y.name from x in Person")
                .is_err()
        );
    }

    #[test]
    fn method_call_nesting_is_refused_past_the_bound() {
        let nested = |n: usize| {
            let arg = format!("{}1{}", "x.m(".repeat(n), ")".repeat(n));
            parse_oql(&format!(
                "select x.name from x in Person where x.age = {arg}"
            ))
        };
        assert!(nested(MAX_CALL_DEPTH).is_ok());
        for n in [MAX_CALL_DEPTH + 1, 50_000] {
            let err = nested(n).unwrap_err().to_string();
            assert!(err.contains("nest deeper than 64"), "{err}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_oql("select x.name from x in Person garbage garbage").is_err());
    }
}
