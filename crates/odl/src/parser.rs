//! Lexer and recursive-descent parser for the ODL subset.
//!
//! Example input (the style of the ODMG-93 book, Figure 1 of the paper):
//!
//! ```text
//! struct Address {
//!     attribute string street;
//!     attribute string city;
//! };
//!
//! interface Person {
//!     extent Person;
//!     key name;
//!     attribute string name;
//!     attribute short age;
//!     attribute Address address;
//! };
//!
//! interface Employee : Person {
//!     extent Employee;
//!     attribute float salary;
//!     float taxes_withheld(in float rate);
//! };
//! ```

use crate::ast::*;
use crate::error::{OdlError, Result};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LAngle,
    RAngle,
    Colon,
    DoubleColon,
    Semi,
    Comma,
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

    fn err(&self, message: impl Into<String>) -> OdlError {
        OdlError::Parse {
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

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn tokens(mut self) -> Result<Vec<Spanned>> {
        let mut out = Vec::new();
        loop {
            loop {
                match self.peek() {
                    Some(c) if c.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'/') if self.peek2() == Some(b'/') => {
                        while let Some(c) = self.peek() {
                            if c == b'\n' {
                                break;
                            }
                            self.bump();
                        }
                    }
                    Some(b'/') if self.peek2() == Some(b'*') => {
                        self.bump();
                        self.bump();
                        loop {
                            match self.bump() {
                                Some(b'*') if self.peek() == Some(b'/') => {
                                    self.bump();
                                    break;
                                }
                                Some(_) => {}
                                None => return Err(self.err("unterminated block comment")),
                            }
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                b'{' => {
                    self.bump();
                    Tok::LBrace
                }
                b'}' => {
                    self.bump();
                    Tok::RBrace
                }
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b'<' => {
                    self.bump();
                    Tok::LAngle
                }
                b'>' => {
                    self.bump();
                    Tok::RAngle
                }
                b';' => {
                    self.bump();
                    Tok::Semi
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b':') {
                        self.bump();
                        Tok::DoubleColon
                    } else {
                        Tok::Colon
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
                    Tok::Ident(s)
                }
                _ => {
                    let ch = self.src[self.pos..].chars().next().unwrap_or_default();
                    return Err(self.err(format!("unexpected character `{ch}`")));
                }
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

/// The deepest nesting of collection types (`Set<List<…>>`) the parser
/// accepts. Schemas nest one or two deep; the bound keeps the parser's
/// recursion, and the parsed type's recursive drop, far inside the
/// calling thread's stack whatever a source text holds.
pub const MAX_TYPE_DEPTH: usize = 64;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Collection types open around `pos`.
    depth: usize,
}

impl Parser {
    fn err_at(&self, message: impl Into<String>) -> OdlError {
        let (line, column) = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| (s.line, s.col))
            .unwrap_or((1, 1));
        OdlError::Parse {
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

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(self.err_at(format!("expected {what}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    /// Parse a type expression. `unsigned` prefixes and two-word numeric
    /// types are folded into [`BaseType`].
    fn type_expr(&mut self) -> Result<Type> {
        let first = self.ident("a type")?;
        let base = match first.as_str() {
            "unsigned" => {
                let second = self.ident("`short` or `long` after `unsigned`")?;
                match second.as_str() {
                    "short" | "long" => Some(BaseType::Int),
                    _ => return Err(self.err_at("expected `short` or `long` after `unsigned`")),
                }
            }
            "short" | "long" | "integer" | "int" => Some(BaseType::Int),
            "float" | "double" | "real" => Some(BaseType::Real),
            "string" | "char" => Some(BaseType::Str),
            "boolean" | "bool" => Some(BaseType::Bool),
            "Set" | "set" | "List" | "list" | "Bag" | "bag" => {
                let kind = match first.to_ascii_lowercase().as_str() {
                    "set" => CollectionKind::Set,
                    "list" => CollectionKind::List,
                    _ => CollectionKind::Bag,
                };
                self.expect(&Tok::LAngle, "`<`")?;
                if self.depth == MAX_TYPE_DEPTH {
                    return Err(self.err_at(format!(
                        "collection types nest deeper than {MAX_TYPE_DEPTH}"
                    )));
                }
                self.depth += 1;
                let inner = self.type_expr();
                self.depth -= 1;
                let inner = inner?;
                self.expect(&Tok::RAngle, "`>`")?;
                return Ok(Type::Collection(kind, Box::new(inner)));
            }
            _ => None,
        };
        Ok(match base {
            Some(b) => Type::Base(b),
            None => Type::Named(first),
        })
    }

    fn struct_decl(&mut self) -> Result<StructDecl> {
        // `struct` already consumed.
        let name = self.ident("structure name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut fields = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            // Optional `attribute` keyword.
            if self.at_keyword("attribute") {
                self.pos += 1;
            }
            let ty = self.type_expr()?;
            let fname = self.ident("field name")?;
            self.expect(&Tok::Semi, "`;`")?;
            fields.push(AttributeDecl { name: fname, ty });
        }
        self.expect(&Tok::RBrace, "`}`")?;
        self.expect(&Tok::Semi, "`;` after `}`")?;
        Ok(StructDecl { name, fields })
    }

    fn interface_decl(&mut self) -> Result<InterfaceDecl> {
        // `interface` (or `class`) already consumed.
        let name = self.ident("interface name")?;
        let mut decl = InterfaceDecl {
            name,
            ..Default::default()
        };
        if self.peek() == Some(&Tok::Colon) {
            self.pos += 1;
            decl.super_class = Some(self.ident("superclass name")?);
        }
        self.expect(&Tok::LBrace, "`{`")?;
        while self.peek() != Some(&Tok::RBrace) {
            if self.at_keyword("extent") {
                self.pos += 1;
                decl.extent = Some(self.ident("extent name")?);
                self.expect(&Tok::Semi, "`;`")?;
            } else if self.at_keyword("key") || self.at_keyword("keys") {
                self.pos += 1;
                let mut key = vec![self.ident("key attribute")?];
                while self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                    key.push(self.ident("key attribute")?);
                }
                self.expect(&Tok::Semi, "`;`")?;
                decl.keys.push(key);
            } else if self.at_keyword("attribute") {
                self.pos += 1;
                let ty = self.type_expr()?;
                let aname = self.ident("attribute name")?;
                self.expect(&Tok::Semi, "`;`")?;
                decl.attributes.push(AttributeDecl { name: aname, ty });
            } else if self.at_keyword("relationship") {
                self.pos += 1;
                let ty = self.type_expr()?;
                let (target, many) = match &ty {
                    Type::Named(n) => (n.clone(), false),
                    Type::Collection(_, inner) => match inner.as_ref() {
                        Type::Named(n) => (n.clone(), true),
                        _ => return Err(self.err_at("relationship target must be a class")),
                    },
                    Type::Base(_) => return Err(self.err_at("relationship target must be a class")),
                };
                let rname = self.ident("relationship name")?;
                let mut inverse = None;
                if self.at_keyword("inverse") {
                    self.pos += 1;
                    let cls = self.ident("inverse class")?;
                    self.expect(&Tok::DoubleColon, "`::`")?;
                    let rel = self.ident("inverse relationship name")?;
                    inverse = Some((cls, rel));
                }
                self.expect(&Tok::Semi, "`;`")?;
                decl.relationships.push(RelationshipDecl {
                    name: rname,
                    target,
                    many,
                    inverse,
                });
            } else {
                // A method: `<ret-type> name(in T a, in U b);`
                let ret = self.type_expr()?;
                let mname = self.ident("method name")?;
                self.expect(&Tok::LParen, "`(`")?;
                let mut params = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        if self.at_keyword("in")
                            || self.at_keyword("out")
                            || self.at_keyword("inout")
                        {
                            self.pos += 1;
                        }
                        let pty = self.type_expr()?;
                        let pname = self.ident("parameter name")?;
                        params.push((pname, pty));
                        if self.peek() == Some(&Tok::Comma) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen, "`)`")?;
                self.expect(&Tok::Semi, "`;`")?;
                decl.methods.push(MethodDecl {
                    name: mname,
                    params,
                    ret,
                });
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        self.expect(&Tok::Semi, "`;` after `}`")?;
        Ok(decl)
    }

    fn decls(&mut self) -> Result<Vec<Decl>> {
        let mut out = Vec::new();
        while let Some(tok) = self.peek().cloned() {
            match tok {
                Tok::Ident(kw) if kw == "struct" => {
                    self.pos += 1;
                    out.push(Decl::Struct(self.struct_decl()?));
                }
                Tok::Ident(kw) if kw == "interface" || kw == "class" => {
                    self.pos += 1;
                    out.push(Decl::Interface(self.interface_decl()?));
                }
                _ => return Err(self.err_at("expected `interface`, `class` or `struct`")),
            }
        }
        Ok(out)
    }
}

/// Parse an ODL source text into declarations.
pub fn parse_odl(src: &str) -> Result<Vec<Decl>> {
    let _span = sqo_obs::span!("odl.parse");
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let decls = p.decls()?;
    sqo_obs::add(
        sqo_obs::Counter::OdlClassesParsed,
        decls
            .iter()
            .filter(|d| matches!(d, Decl::Interface(_)))
            .count() as u64,
    );
    Ok(decls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_nesting_is_refused_past_the_bound() {
        let nested = |n: usize| {
            let ty = format!("{}long{}", "set<".repeat(n), ">".repeat(n));
            parse_odl(&format!("interface C {{ attribute {ty} a; }};"))
        };
        assert!(nested(MAX_TYPE_DEPTH).is_ok());
        for n in [MAX_TYPE_DEPTH + 1, 50_000] {
            let err = nested(n).unwrap_err().to_string();
            assert!(err.contains("nest deeper than 64"), "{err}");
        }
    }

    #[test]
    fn parse_struct() {
        let decls =
            parse_odl("struct Address { attribute string street; attribute string city; };")
                .unwrap();
        let Decl::Struct(s) = &decls[0] else { panic!() };
        assert_eq!(s.name, "Address");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[1].name, "city");
    }

    #[test]
    fn struct_fields_without_attribute_keyword() {
        let decls = parse_odl("struct P { string a; short b; };").unwrap();
        let Decl::Struct(s) = &decls[0] else { panic!() };
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[1].ty, Type::Base(BaseType::Int));
    }

    #[test]
    fn parse_interface_with_everything() {
        let src = r#"
            interface Employee : Person {
                extent Employee;
                key id;
                attribute string id;
                attribute float salary;
                relationship Set<Section> teaches inverse Section::is_taught_by;
                float taxes_withheld(in float rate);
            };
        "#;
        let decls = parse_odl(src).unwrap();
        let Decl::Interface(i) = &decls[0] else {
            panic!()
        };
        assert_eq!(i.name, "Employee");
        assert_eq!(i.super_class.as_deref(), Some("Person"));
        assert_eq!(i.extent.as_deref(), Some("Employee"));
        assert_eq!(i.keys, vec![vec!["id".to_string()]]);
        assert_eq!(i.attributes.len(), 2);
        let r = &i.relationships[0];
        assert_eq!(r.name, "teaches");
        assert_eq!(r.target, "Section");
        assert!(r.many);
        assert_eq!(
            r.inverse,
            Some(("Section".to_string(), "is_taught_by".to_string()))
        );
        let m = &i.methods[0];
        assert_eq!(m.name, "taxes_withheld");
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.ret, Type::Base(BaseType::Real));
    }

    #[test]
    fn to_one_relationship() {
        let src = "interface Section { relationship TA has_ta inverse TA::assists; };";
        let decls = parse_odl(src).unwrap();
        let Decl::Interface(i) = &decls[0] else {
            panic!()
        };
        assert!(!i.relationships[0].many);
    }

    #[test]
    fn unsigned_types_and_comments() {
        let src = "
            // line comment
            interface P { /* block
            comment */ attribute unsigned short age; };
        ";
        let decls = parse_odl(src).unwrap();
        let Decl::Interface(i) = &decls[0] else {
            panic!()
        };
        assert_eq!(i.attributes[0].ty, Type::Base(BaseType::Int));
    }

    #[test]
    fn composite_key() {
        let src = "interface C { key a, b; attribute string a; attribute string b; };";
        let decls = parse_odl(src).unwrap();
        let Decl::Interface(i) = &decls[0] else {
            panic!()
        };
        assert_eq!(i.keys, vec![vec!["a".to_string(), "b".to_string()]]);
    }

    #[test]
    fn method_with_multiple_params_and_named_return() {
        let src = "interface C { Address relocate(in string street, in string city); };";
        let decls = parse_odl(src).unwrap();
        let Decl::Interface(i) = &decls[0] else {
            panic!()
        };
        assert_eq!(i.methods[0].params.len(), 2);
        assert_eq!(i.methods[0].ret, Type::Named("Address".into()));
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_odl("interface {").unwrap_err();
        assert!(matches!(err, OdlError::Parse { line: 1, .. }));
        assert!(parse_odl("struct S { string; };").is_err());
        assert!(parse_odl("bogus").is_err());
    }

    #[test]
    fn relationship_requires_class_target() {
        assert!(parse_odl("interface C { relationship Set<string> r; };").is_err());
        assert!(parse_odl("interface C { relationship string r; };").is_err());
    }
}
