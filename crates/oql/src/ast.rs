//! Abstract syntax for the supported OQL subset (select-from-where).
//!
//! Per Section 4.3 of the paper, the optimizer handles unnested
//! select-from-where queries; constructors (`struct`, `list`, `set`,
//! `bag`) in the `select` clause are *carried through* optimization
//! verbatim (they are extralogical and never translated to Datalog), and
//! the `from` clause supports the `x not in C` form that algorithm
//! DATALOG_to_OQL introduces for scope reduction.

use std::fmt;

/// A comparison operator in a `where` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` (`<>` also accepted)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Real literal; `10%` parses as `0.10`.
    Real(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
}

/// Written so the parser reads it back: a finite real always has a
/// fractional part (an integral one would come back an `Int`), and a
/// string takes `{:?}`'s escapes, which are the lexer's.
impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Real(v) => {
                if v.fract() == 0.0 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::Str(s) => write!(f, "{s:?}"),
            Literal::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One step of a path expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PathStep {
    /// `.member` — an attribute or relationship traversal.
    Member(String),
    /// `.method(args)` — a method application with user-provided
    /// arguments.
    MethodCall {
        /// The method name.
        name: String,
        /// The argument expressions.
        args: Vec<Expr>,
    },
}

impl PathStep {
    /// The member/method name of the step.
    pub fn name(&self) -> &str {
        match self {
            PathStep::Member(n) => n,
            PathStep::MethodCall { name, .. } => name,
        }
    }
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStep::Member(n) => write!(f, ".{n}"),
            PathStep::MethodCall { name, args } => {
                write!(f, ".{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// A path expression `x.a.b` rooted at an iteration variable.
#[derive(Debug, Clone, PartialEq)]
pub struct PathExpr {
    /// The root variable.
    pub root: String,
    /// The traversal steps (possibly empty: a bare variable).
    pub steps: Vec<PathStep>,
}

impl PathExpr {
    /// A bare variable.
    pub fn var(root: impl Into<String>) -> Self {
        PathExpr {
            root: root.into(),
            steps: Vec::new(),
        }
    }

    /// A one-dot expression `root.member`.
    pub fn member(root: impl Into<String>, member: impl Into<String>) -> Self {
        PathExpr {
            root: root.into(),
            steps: vec![PathStep::Member(member.into())],
        }
    }

    /// Whether the expression is in one-dot form (at most one step).
    pub fn is_one_dot(&self) -> bool {
        self.steps.len() <= 1
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.root)?;
        for s in &self.steps {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// An expression: a path or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A path expression.
    Path(PathExpr),
    /// A literal constant.
    Lit(Literal),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Path(p) => p.fmt(f),
            Expr::Lit(l) => l.fmt(f),
        }
    }
}

/// Constructor kinds allowed in the `select` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructorKind {
    /// `struct(l1: e1, ...)`
    Struct,
    /// `list(e1, ...)`
    List,
    /// `set(e1, ...)`
    Set,
    /// `bag(e1, ...)`
    Bag,
}

impl fmt::Display for ConstructorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConstructorKind::Struct => "struct",
            ConstructorKind::List => "list",
            ConstructorKind::Set => "set",
            ConstructorKind::Bag => "bag",
        })
    }
}

/// A labelled field inside a constructor (labels only with `struct`).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectField {
    /// Field label (struct constructors only).
    pub label: Option<String>,
    /// The field expression.
    pub expr: Expr,
}

impl fmt::Display for SelectField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(l) = &self.label {
            write!(f, "{l}: ")?;
        }
        self.expr.fmt(f)
    }
}

/// One item of the `select` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain expression.
    Expr(Expr),
    /// A constructor application, carried through optimization verbatim.
    Constructor {
        /// The constructor kind.
        kind: ConstructorKind,
        /// The fields.
        fields: Vec<SelectField>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Expr(e) => e.fmt(f),
            SelectItem::Constructor { kind, fields } => {
                write!(f, "{kind}(")?;
                for (i, fl) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    fl.fmt(f)?;
                }
                f.write_str(")")
            }
        }
    }
}

/// The source of a `from` iteration variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A class extent, e.g. `x in Student`.
    Extent(String),
    /// A path, e.g. `y in x.takes` (or a longer path, pre-normalization).
    Path(PathExpr),
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Extent(c) => f.write_str(c),
            Source::Path(p) => p.fmt(f),
        }
    }
}

/// One `from` clause entry.
#[derive(Debug, Clone, PartialEq)]
pub enum FromEntry {
    /// `var in source`
    In {
        /// The iteration variable.
        var: String,
        /// The collection iterated over.
        source: Source,
    },
    /// `var not in Source` — produced by algorithm DATALOG_to_OQL:
    /// `x not in C` for scope reduction (Application 2), `y not in x.R`
    /// for negated relationship literals. Restricts an already-bound
    /// variable.
    NotIn {
        /// The (already bound) variable.
        var: String,
        /// The excluded collection (extent or one-dot path).
        source: Source,
    },
}

impl fmt::Display for FromEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromEntry::In { var, source } => write!(f, "{var} in {source}"),
            FromEntry::NotIn { var, source } => write!(f, "{var} not in {source}"),
        }
    }
}

/// An existential subquery in the `where` clause:
/// `exists v in source : (p1 and p2 …)` — the extension Section 6 of the
/// paper lists as future work ("existentially quantified queries").
///
/// Under set semantics an existential is *conjunctive sugar*: the
/// normalizer desugars it into an ordinary `from` entry plus `where`
/// predicates (Datalog body variables are implicitly existential), so
/// the optimizer needs no new machinery.
#[derive(Debug, Clone, PartialEq)]
pub struct ExistsClause {
    /// The existentially quantified variable.
    pub var: String,
    /// The collection it ranges over.
    pub source: Source,
    /// The inner conjunction.
    pub conds: Vec<Predicate>,
}

impl fmt::Display for ExistsClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exists {} in {} : (", self.var, self.source)?;
        for (i, p) in self.conds.iter().enumerate() {
            if i > 0 {
                f.write_str(" and ")?;
            }
            p.fmt(f)?;
        }
        f.write_str(")")
    }
}

/// A `where` predicate: a comparison between two expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Left operand.
    pub lhs: Expr,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Expr,
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A select-from-where query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// `select distinct`?
    pub distinct: bool,
    /// The select items.
    pub select: Vec<SelectItem>,
    /// The from entries, in order.
    pub from: Vec<FromEntry>,
    /// The where predicates (an implicit conjunction).
    pub where_: Vec<Predicate>,
    /// Existential subqueries conjoined with the where clause.
    pub exists: Vec<ExistsClause>,
}

impl SelectQuery {
    /// Iteration variables declared by the from clause, in order.
    pub fn declared_vars(&self) -> Vec<&str> {
        self.from
            .iter()
            .filter_map(|e| match e {
                FromEntry::In { var, .. } => Some(var.as_str()),
                FromEntry::NotIn { .. } => None,
            })
            .collect()
    }
}

impl fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("select ")?;
        if self.distinct {
            f.write_str("distinct ")?;
        }
        for (i, s) in self.select.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            s.fmt(f)?;
        }
        f.write_str("\nfrom ")?;
        for (i, e) in self.from.iter().enumerate() {
            if i > 0 {
                f.write_str(",\n     ")?;
            }
            e.fmt(f)?;
        }
        if !self.where_.is_empty() || !self.exists.is_empty() {
            f.write_str("\nwhere ")?;
            let mut first = true;
            for p in &self.where_ {
                if !first {
                    f.write_str(" and ")?;
                }
                p.fmt(f)?;
                first = false;
            }
            for e in &self.exists {
                if !first {
                    f.write_str(" and ")?;
                }
                e.fmt(f)?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let p = PathExpr {
            root: "z".into(),
            steps: vec![
                PathStep::Member("address".into()),
                PathStep::Member("city".into()),
            ],
        };
        assert_eq!(p.to_string(), "z.address.city");
        assert!(!p.is_one_dot());
        assert!(PathExpr::member("x", "name").is_one_dot());
        assert!(PathExpr::var("x").is_one_dot());
    }

    #[test]
    fn method_call_display() {
        let p = PathExpr {
            root: "z".into(),
            steps: vec![PathStep::MethodCall {
                name: "taxes_withheld".into(),
                args: vec![Expr::Lit(Literal::Real(0.1))],
            }],
        };
        assert_eq!(p.to_string(), "z.taxes_withheld(0.1)");
    }

    #[test]
    fn query_display() {
        let q = SelectQuery {
            distinct: false,
            select: vec![SelectItem::Expr(Expr::Path(PathExpr::member("x", "name")))],
            from: vec![
                FromEntry::In {
                    var: "x".into(),
                    source: Source::Extent("Person".into()),
                },
                FromEntry::NotIn {
                    var: "x".into(),
                    source: Source::Extent("Faculty".into()),
                },
            ],
            where_: vec![Predicate {
                lhs: Expr::Path(PathExpr::member("x", "age")),
                op: CmpOp::Lt,
                rhs: Expr::Lit(Literal::Int(30)),
            }],
            exists: vec![],
        };
        assert_eq!(
            q.to_string(),
            "select x.name\nfrom x in Person,\n     x not in Faculty\nwhere x.age < 30"
        );
        assert_eq!(q.declared_vars(), vec!["x"]);
    }
}
