//! Property tests for the parameter-normalized canonical template
//! ([`Query::canonical_template`]) backing the semantic-plan cache.
//!
//! The contract under test: two queries share a template fingerprint iff
//! they are identical up to the constants of their var-vs-const
//! comparisons (the *lifted* parameters); and binding a parameter vector
//! back through the slots reproduces a query whose [`canonical_hash`]
//! matches the query those parameters came from.
//!
//! [`canonical_hash`]: Query::canonical_hash

use proptest::prelude::*;
use sqo_datalog::{CmpOp, Literal, Query, Term};

fn var_term() -> impl Strategy<Value = Term> {
    (0usize..4).prop_map(|i| Term::var(["X", "Y", "Z", "W"][i]))
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

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        3 => (
            (0usize..3).prop_map(|i| ["p", "q", "r"][i].to_string()),
            prop::collection::vec(small_term(), 1..3),
        )
            .prop_map(|(p, args)| Literal::pos(p, args)),
        // Liftable comparisons: var vs const, in either orientation.
        3 => (var_term(), cmp_op(), 0i64..8, any::<bool>()).prop_map(|(v, op, k, flipped)| {
            if flipped {
                Literal::cmp(Term::int(k), op, v)
            } else {
                Literal::cmp(v, op, Term::int(k))
            }
        }),
        // Non-liftable comparisons: ground or var-vs-var.
        1 => (cmp_op(), 0i64..4, 0i64..4).prop_map(|(op, a, b)| {
            Literal::cmp(Term::int(a), op, Term::int(b))
        }),
        1 => (var_term(), cmp_op(), var_term()).prop_map(|(a, op, b)| Literal::cmp(a, op, b)),
    ]
}

fn query() -> impl Strategy<Value = Query> {
    (prop::collection::vec(literal(), 1..5), 0usize..4)
        .prop_map(|(body, p)| Query::new("q", vec![Term::var(["X", "Y", "Z", "W"][p])], body))
}

/// `q` with every lifted parameter shifted by `delta` (slot-wise).
fn shift_params(q: &Query, delta: i64) -> Query {
    let t = q.canonical_template();
    let shifted: Vec<_> = t
        .params
        .iter()
        .map(|c| match c {
            sqo_datalog::Const::Int(v) => sqo_datalog::Const::Int(v + delta),
            other => *other,
        })
        .collect();
    q.with_params(&t.slots, &shifted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Binding a template's own parameters back into its slots is the
    /// identity — the slots really address the lifted constants.
    #[test]
    fn rebinding_own_params_is_identity(q in query()) {
        let t = q.canonical_template();
        prop_assert_eq!(t.params.len(), t.slots.len());
        prop_assert_eq!(q.with_params(&t.slots, &t.params), q);
    }

    /// Changing only the lifted constants never changes the fingerprint,
    /// the slot list, or the canonical variable order.
    #[test]
    fn lifted_constants_do_not_affect_fingerprint(q in query(), delta in 1i64..50) {
        let t = q.canonical_template();
        let t2 = shift_params(&q, delta).canonical_template();
        prop_assert_eq!(t.hash, t2.hash);
        prop_assert_eq!(t.slots, t2.slots);
        prop_assert_eq!(t.var_order, t2.var_order);
    }

    /// The cache's transfer step is faithful: whenever two queries share
    /// a fingerprint, rebinding one side's parameters into the other's
    /// slots reproduces the first query's rename-independent identity
    /// (`canonical_hash`). This is exactly how a cached representative
    /// is retargeted onto a new request.
    #[test]
    fn equal_fingerprints_agree_up_to_params(q1 in query(), q2 in query()) {
        let t1 = q1.canonical_template();
        let t2 = q2.canonical_template();
        if t1.hash == t2.hash {
            prop_assert_eq!(t1.params.len(), t2.params.len());
            let transferred = q2.with_params(&t2.slots, &t1.params);
            prop_assert_eq!(
                transferred.canonical_hash(),
                q1.canonical_hash(),
                "template-equal queries must coincide once parameters are rebound:\n  {}\n  {}",
                q1,
                q2
            );
        }
    }

    /// Distinct parameter vectors leave the fingerprint equal while the
    /// concrete queries differ — the cache key really is a template, not
    /// the query itself.
    #[test]
    fn templates_abstract_over_params(q in query(), delta in 1i64..50) {
        let t = q.canonical_template();
        if !t.params.is_empty() {
            let shifted = shift_params(&q, delta);
            prop_assert_eq!(t.hash, shifted.canonical_template().hash);
            // Shifting params must change the concrete query.
            prop_assert_ne!(shifted.canonical_hash(), q.canonical_hash());
        }
    }
}
