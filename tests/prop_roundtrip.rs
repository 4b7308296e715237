//! Property tests for the two concrete syntaxes: display → parse
//! round-trips for Datalog and OQL, and normalization idempotence.

use proptest::prelude::*;
use semantic_sqo::datalog::parser::{parse_constraint, parse_query};
use semantic_sqo::datalog::{
    Atom, CmpOp, Comparison, Constraint, ConstraintHead, Literal, Query, Term,
};
use semantic_sqo::oql::{
    is_normalized, normalize, parse_oql, CmpOp as OqlOp, ConstructorKind, ExistsClause, Expr,
    FromEntry, Literal as OqlLit, PathExpr, PathStep, Predicate, SelectField, SelectItem,
    SelectQuery, Source,
};

fn ident_lower() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("reserved words", |s| {
        !matches!(s.as_str(), "not" | "ic" | "true" | "false")
    })
}

fn ident_upper() -> impl Strategy<Value = String> {
    "[A-Z][A-Za-z0-9_]{0,6}"
}

/// Any text: ASCII with its control bytes and both quotes, two-byte
/// letters, and the rest of Unicode.
fn any_text() -> impl Strategy<Value = String> {
    let code = prop_oneof![4 => 0u32..0x80, 2 => 0x80u32..0x800, 1 => 0x800u32..0x11_0000];
    prop::collection::vec(code, 0..8)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

fn dl_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        ident_upper().prop_map(Term::var),
        (-1000i64..1000).prop_map(Term::int),
        any_text().prop_map(Term::str),
        (0u64..100).prop_map(Term::oid),
        any::<bool>().prop_map(|b| Term::Const(semantic_sqo::datalog::Const::Bool(b))),
    ]
}

fn dl_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn dl_atom() -> impl Strategy<Value = Atom> {
    (ident_lower(), prop::collection::vec(dl_term(), 1..4)).prop_map(|(p, args)| Atom::new(p, args))
}

fn dl_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        dl_atom().prop_map(Literal::Pos),
        dl_atom().prop_map(Literal::Neg),
        (dl_term(), dl_op(), dl_term())
            .prop_map(|(l, op, r)| Literal::Cmp(Comparison::new(l, op, r))),
    ]
}

fn dl_query() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(dl_term(), 0..3),
        prop::collection::vec(dl_literal(), 1..5),
    )
        .prop_map(|(proj, body)| Query::new("q", proj, body))
}

fn dl_constraint() -> impl Strategy<Value = Constraint> {
    let head = prop_oneof![
        Just(ConstraintHead::None),
        dl_atom().prop_map(ConstraintHead::Atom),
        dl_atom().prop_map(ConstraintHead::NegAtom),
        (dl_term(), dl_op(), dl_term())
            .prop_map(|(l, op, r)| ConstraintHead::Cmp(Comparison::new(l, op, r))),
    ];
    (head, prop::collection::vec(dl_literal(), 1..4)).prop_map(|(h, b)| Constraint::new(h, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Datalog queries survive a display → parse round-trip.
    #[test]
    fn datalog_query_roundtrip(q in dl_query()) {
        let text = q.to_string();
        let parsed = parse_query(&text)
            .unwrap_or_else(|e| panic!("reparse failed for `{text}`: {e}"));
        prop_assert_eq!(parsed, q);
    }

    /// Datalog constraints survive a display → parse round-trip.
    #[test]
    fn datalog_constraint_roundtrip(c in dl_constraint()) {
        let text = c.to_string();
        let parsed = parse_constraint(&text)
            .unwrap_or_else(|e| panic!("reparse failed for `{text}`: {e}"));
        prop_assert_eq!(parsed, c);
    }

    /// The canonical hash is invariant under consistent variable renaming.
    #[test]
    fn canonical_hash_rename_invariant(q in dl_query(), suffix in "[0-9]{1,2}") {
        let renamed = {
            let mut subst = semantic_sqo::datalog::Subst::new();
            for v in q.vars() {
                subst.bind(
                    v,
                    Term::var(format!("{}R{suffix}", v.name())),
                );
            }
            subst.apply_query(&q)
        };
        prop_assert_eq!(q.canonical_hash(), renamed.canonical_hash());
    }
}

/// A name the OQL lexer reads as an identifier: no keyword, any case.
fn oql_ident() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_]{0,5}".prop_filter("keywords", |s| {
        !matches!(
            s.to_ascii_lowercase().as_str(),
            "select"
                | "distinct"
                | "from"
                | "where"
                | "in"
                | "not"
                | "and"
                | "or"
                | "true"
                | "false"
                | "struct"
                | "list"
                | "set"
                | "bag"
                | "exists"
                | "union"
        )
    })
}

fn oql_literal() -> impl Strategy<Value = OqlLit> {
    prop_oneof![
        (i64::MIN..i64::MAX).prop_map(OqlLit::Int),
        (0u64..u64::MAX)
            .prop_map(f64::from_bits)
            .prop_filter("finite", |v| v.is_finite())
            .prop_map(OqlLit::Real),
        (-100_000i64..100_000).prop_map(|n| OqlLit::Real(n as f64 / 100.0)),
        (-1000i64..1000).prop_map(|n| OqlLit::Real(n as f64 * 1e15)),
        any_text().prop_map(OqlLit::Str),
        any::<bool>().prop_map(OqlLit::Bool),
    ]
}

fn oql_op() -> impl Strategy<Value = OqlOp> {
    prop_oneof![
        Just(OqlOp::Eq),
        Just(OqlOp::Ne),
        Just(OqlOp::Lt),
        Just(OqlOp::Le),
        Just(OqlOp::Gt),
        Just(OqlOp::Ge),
    ]
}

/// Path steps: members, and method calls on literal arguments.
fn oql_steps() -> impl Strategy<Value = Vec<PathStep>> {
    let step = prop_oneof![
        2 => oql_ident().prop_map(PathStep::Member),
        1 => (oql_ident(), prop::collection::vec(oql_literal(), 0..3)).prop_map(|(name, args)| {
            PathStep::MethodCall {
                name,
                args: args.into_iter().map(Expr::Lit).collect(),
            }
        }),
    ];
    prop::collection::vec(step, 0..3)
}

/// An expression whose path, if it is one, is rooted at declared
/// variable number `root` (modulo the number declared).
#[derive(Debug, Clone)]
enum ExprSeed {
    Lit(OqlLit),
    Path(usize, Vec<PathStep>),
}

impl ExprSeed {
    fn build(self, vars: &[String]) -> Expr {
        match self {
            ExprSeed::Lit(l) => Expr::Lit(l),
            ExprSeed::Path(root, steps) => Expr::Path(PathExpr {
                root: vars[root % vars.len()].clone(),
                steps,
            }),
        }
    }
}

fn oql_expr() -> impl Strategy<Value = ExprSeed> {
    prop_oneof![
        1 => oql_literal().prop_map(ExprSeed::Lit),
        2 => (0usize..8, oql_steps()).prop_map(|(r, s)| ExprSeed::Path(r, s)),
    ]
}

/// A collection: an extent when `steps` is empty or nothing is declared
/// yet, else a member path rooted at a declared variable.
fn source(class: String, root: usize, steps: Vec<String>, vars: &[String]) -> Source {
    if steps.is_empty() || vars.is_empty() {
        return Source::Extent(class);
    }
    Source::Path(PathExpr {
        root: vars[root % vars.len()].clone(),
        steps: steps.into_iter().map(PathStep::Member).collect(),
    })
}

fn oql_source() -> impl Strategy<Value = (String, usize, Vec<String>)> {
    (
        oql_ident(),
        0usize..8,
        prop::collection::vec(oql_ident(), 0..3),
    )
}

fn oql_predicate() -> impl Strategy<Value = (ExprSeed, OqlOp, ExprSeed)> {
    (oql_expr(), oql_op(), oql_expr())
}

/// Every form the parser produces: `distinct`, the four constructors and
/// struct labels, extents and paths in `from`, `not in`, literals of each
/// type on either side of every operator, method calls, and `exists`.
fn oql_query() -> impl Strategy<Value = SelectQuery> {
    let item = (
        0usize..5,
        prop::collection::vec((any::<bool>(), oql_ident(), oql_expr()), 0..3),
    );
    (
        (any::<bool>(), oql_expr(), prop::collection::vec(item, 0..3)),
        prop::collection::vec((oql_ident(), oql_source()), 1..4),
        prop::collection::vec((0usize..8, oql_source()), 0..2),
        prop::collection::vec(oql_predicate(), 0..4),
        prop::collection::vec(
            (
                oql_ident(),
                oql_source(),
                prop::collection::vec(oql_predicate(), 1..3),
            ),
            0..2,
        ),
    )
        .prop_map(|((distinct, first, items), ins, not_ins, preds, exists)| {
            // `_{i}` and `_e{i}` keep every declared name distinct.
            let mut vars: Vec<String> = Vec::new();
            let mut from = Vec::new();
            for (i, (name, (class, root, steps))) in ins.into_iter().enumerate() {
                let source = source(class, root, steps, &vars);
                vars.push(format!("{name}_{i}"));
                from.push(FromEntry::In {
                    var: vars[i].clone(),
                    source,
                });
            }
            for (var, (class, root, steps)) in not_ins {
                from.push(FromEntry::NotIn {
                    var: vars[var % vars.len()].clone(),
                    source: source(class, root, steps, &vars),
                });
            }
            let predicate = |(lhs, op, rhs): (ExprSeed, OqlOp, ExprSeed)| Predicate {
                lhs: lhs.build(&vars),
                op,
                rhs: rhs.build(&vars),
            };
            let exists = exists
                .into_iter()
                .enumerate()
                .map(|(i, (name, (class, root, steps), conds))| ExistsClause {
                    var: format!("{name}_e{i}"),
                    source: source(class, root, steps, &vars),
                    conds: conds.into_iter().map(predicate).collect(),
                })
                .collect();
            let mut select = vec![SelectItem::Expr(first.build(&vars))];
            for (kind, fields) in items {
                let kind = match kind {
                    0 => ConstructorKind::Struct,
                    1 => ConstructorKind::List,
                    2 => ConstructorKind::Set,
                    3 => ConstructorKind::Bag,
                    _ => {
                        select.extend(
                            fields
                                .into_iter()
                                .map(|(_, _, e)| SelectItem::Expr(e.build(&vars))),
                        );
                        continue;
                    }
                };
                let fields = fields
                    .into_iter()
                    .map(|(labelled, label, e)| SelectField {
                        label: (labelled && kind == ConstructorKind::Struct).then_some(label),
                        expr: e.build(&vars),
                    })
                    .collect();
                select.push(SelectItem::Constructor { kind, fields });
            }
            SelectQuery {
                distinct,
                select,
                from,
                where_: preds.into_iter().map(predicate).collect(),
                exists,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every query the parser can produce parses back from its display
    /// unchanged — what lets `optimize_query_cached` key a parsed query
    /// by its rendering.
    #[test]
    fn oql_roundtrip(q in oql_query()) {
        let text = q.to_string();
        let reparsed = parse_oql(&text)
            .unwrap_or_else(|e| panic!("reparse failed for `{text}`: {e}"));
        prop_assert_eq!(reparsed, q);
    }

    /// Normalization is idempotent and always reaches one-dot form.
    #[test]
    fn normalize_idempotent(depth in 1usize..5) {
        let path: String = std::iter::repeat_n(".takes", depth).collect();
        let src = format!("select x.name from x in Student where x{path}.number = \"a\"");
        let q = parse_oql(&src).unwrap();
        let n = normalize(&q);
        prop_assert!(is_normalized(&n), "{n}");
        prop_assert_eq!(normalize(&n), n);
    }
}
