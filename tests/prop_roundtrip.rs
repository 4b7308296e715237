//! Property tests for the two concrete syntaxes: display → parse
//! round-trips for Datalog and OQL, and normalization idempotence.

use proptest::prelude::*;
use semantic_sqo::datalog::parser::{parse_constraint, parse_query};
use semantic_sqo::datalog::{
    Atom, CmpOp, Comparison, Constraint, ConstraintHead, Literal, Query, Term,
};
use semantic_sqo::oql::{is_normalized, normalize, parse_oql};

fn ident_lower() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("reserved words", |s| {
        !matches!(s.as_str(), "not" | "ic" | "true" | "false")
    })
}

fn ident_upper() -> impl Strategy<Value = String> {
    "[A-Z][A-Za-z0-9_]{0,6}"
}

fn dl_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        ident_upper().prop_map(Term::var),
        (-1000i64..1000).prop_map(Term::int),
        "[a-z ]{0,8}".prop_map(Term::str),
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

fn oql_sources() -> impl Strategy<Value = String> {
    // Structured OQL generation over the university vocabulary: valid
    // member names matter for the parser, not the schema (parsing is
    // schema-independent).
    let member = prop_oneof![Just("name"), Just("age"), Just("takes"), Just("address"),];
    let cmp = prop_oneof![
        Just("="),
        Just("!="),
        Just("<"),
        Just(">"),
        Just("<="),
        Just(">=")
    ];
    (member, cmp, 0i64..100).prop_map(|(m, op, k)| {
        format!(
            "select x.{m} from x in Person, y in x.takes where x.age {op} {k} and y.number = \"s\""
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// OQL display → parse round-trips.
    #[test]
    fn oql_roundtrip(src in oql_sources()) {
        let q = parse_oql(&src).unwrap();
        let reparsed = parse_oql(&q.to_string())
            .unwrap_or_else(|e| panic!("reparse failed for `{q}`: {e}"));
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
