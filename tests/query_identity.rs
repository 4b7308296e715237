//! A query's two identities, as the Step-3 search's duplicate index and
//! the plan cache read them (`Query::canonical_form` and
//! `Query::canonical_template`), checked at the top level:
//!
//! * the template digests the form's tokens when nothing is lifted, and
//!   differs from it when a constant is;
//! * the form does not change when the body is permuted and the
//!   variables renamed, as long as the atoms — which sort before every
//!   comparison — number the variables: then two comparisons of one
//!   shape (`A < 616, B < 616`) render alike in either order.
//!
//! Renamings keep the names' relative order (one prefix for every
//! variable): a variable–variable comparison is oriented by its text, so
//! a renaming that reorders names may turn `A < B` into `B > A` and, with
//! it, the form — a lost dedup, never a wrong merge.

use proptest::prelude::*;
use semantic_sqo::datalog::{CmpOp, Literal, Query, Term, Var};

const VARS: [&str; 4] = ["X", "Y", "Z", "W"];

fn var_term() -> impl Strategy<Value = Term> {
    (0usize..VARS.len()).prop_map(|i| Term::var(VARS[i]))
}

fn small_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => var_term(),
        1 => (0i64..4).prop_map(Term::int),
    ]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

/// Liftable (variable against constant, either way round), ground and
/// variable–variable comparisons.
fn comparison() -> impl Strategy<Value = Literal> {
    prop_oneof![
        3 => (var_term(), cmp_op(), 0i64..8, any::<bool>()).prop_map(|(v, op, k, flipped)| {
            if flipped {
                Literal::cmp(Term::int(k), op, v)
            } else {
                Literal::cmp(v, op, Term::int(k))
            }
        }),
        1 => (cmp_op(), 0i64..4, 0i64..4)
            .prop_map(|(op, a, b)| Literal::cmp(Term::int(a), op, Term::int(b))),
        1 => (var_term(), cmp_op(), var_term()).prop_map(|(a, op, b)| Literal::cmp(a, op, b)),
    ]
}

fn query() -> impl Strategy<Value = Query> {
    let atom = (
        (0usize..3).prop_map(|i| ["p", "q", "r"][i]),
        prop::collection::vec(small_term(), 1..3),
    )
        .prop_map(|(p, args)| Literal::pos(p, args));
    let literal = prop_oneof![3 => atom, 5 => comparison()];
    (prop::collection::vec(literal, 1..5), 0usize..VARS.len())
        .prop_map(|(body, p)| Query::new("q", vec![Term::var(VARS[p])], body))
}

/// A query whose atoms have distinct predicates — so distinct shapes —
/// and whose comparisons mention only variables an atom or the
/// projection numbers first. Comparisons may share a shape.
fn pinned_query() -> impl Strategy<Value = Query> {
    let atoms = prop::collection::vec(prop::collection::vec(small_term(), 1..4), 1..4);
    let negated = prop::collection::vec(var_term(), 0..3);
    let cmps = prop::collection::vec(comparison(), 0..5);
    (atoms, negated, cmps, 0usize..VARS.len()).prop_map(|(atoms, negated, cmps, p)| {
        let mut body: Vec<Literal> = atoms
            .into_iter()
            .zip(["p", "q", "r"])
            .map(|(args, pred)| Literal::pos(pred, args))
            .collect();
        if !negated.is_empty() {
            body.push(Literal::neg("s", negated));
        }
        let projection = vec![Term::var(VARS[p])];
        let numbered: Vec<&Var> = projection
            .iter()
            .filter_map(Term::as_var)
            .chain(body.iter().flat_map(Literal::iter_vars))
            .collect();
        let pinned: Vec<Literal> = cmps
            .into_iter()
            .filter(|c| c.iter_vars().all(|v| numbered.contains(&v)))
            .collect();
        body.extend(pinned);
        Query::new("q", projection, body)
    })
}

/// `q` with its body in the order `keys` sorts it into, and every
/// variable renamed to `prefix` followed by its name.
fn permuted_and_renamed(q: &Query, keys: &[u64], prefix: &str) -> Query {
    let rename = |t: &Term| match t {
        Term::Var(v) => Term::var(format!("{prefix}{}", v.name())),
        c => *c,
    };
    let renamed = |l: &Literal| match l {
        Literal::Pos(a) => Literal::pos(a.pred, a.args.iter().map(rename).collect()),
        Literal::Neg(a) => Literal::neg(a.pred, a.args.iter().map(rename).collect()),
        Literal::Cmp(c) => Literal::cmp(rename(&c.lhs), c.op, rename(&c.rhs)),
    };
    let mut order: Vec<usize> = (0..q.body.len()).collect();
    order.sort_by_key(|&i| keys[i % keys.len()]);
    Query::new(
        q.name.clone(),
        q.projection.iter().map(rename).collect(),
        order.into_iter().map(|i| renamed(&q.body[i])).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The template and the form are two readings of one walk: with no
    /// comparison to lift they are the same tokens, so the same hash; a
    /// lifted constant is a `Param` token in one and itself in the other,
    /// so the hashes differ.
    #[test]
    fn template_hash_is_the_canonical_hash_iff_nothing_is_lifted(q in query()) {
        let t = q.canonical_template();
        if t.params.is_empty() {
            prop_assert_eq!(t.hash, q.canonical_hash());
        } else {
            prop_assert_ne!(t.hash, q.canonical_hash());
        }
    }

    /// Permuting a pinned query's body and renaming its variables leaves
    /// its canonical form, and so its hash, as it was.
    #[test]
    fn pinned_queries_canonicalize_alike_in_any_order_and_naming(
        q in pinned_query(),
        keys in prop::collection::vec(0u64..1000, 8),
        prefix in "[A-Z][a-z0-9]{0,3}",
    ) {
        let other = permuted_and_renamed(&q, &keys, &prefix);
        prop_assert_eq!(q.canonical_form(), other.canonical_form(), "{} vs {}", q, other);
        prop_assert_eq!(q.canonical_hash(), other.canonical_hash());
    }
}

/// The case behind fuzz seed 20 (`tests/corpus/
/// subsumption_permuted_cmps.repro`): two same-shape bounds and a
/// disequality, written in either order and under other names, are one
/// form, because the atom numbers `A` and `B` before any comparison is
/// reached.
#[test]
fn permuted_duplicate_shape_comparisons_canonicalize_identically() {
    let bounded = |first: &str, second: &str| {
        Query::new(
            "q",
            vec![Term::var("X")],
            vec![
                Literal::cmp(Term::var(first), CmpOp::Lt, Term::int(616)),
                Literal::cmp(Term::var(second), CmpOp::Lt, Term::int(616)),
                Literal::cmp(Term::var(first), CmpOp::Ne, Term::var(second)),
                Literal::pos("c2", vec![Term::var("X"), Term::var("A"), Term::var("B")]),
            ],
        )
    };
    let ab = bounded("A", "B");
    for other in [
        bounded("B", "A"),
        permuted_and_renamed(&bounded("B", "A"), &[3, 0, 2, 1], "V"),
    ] {
        assert_eq!(ab.canonical_form(), other.canonical_form(), "{other}");
        assert_eq!(ab.canonical_hash(), other.canonical_hash());
    }
}
