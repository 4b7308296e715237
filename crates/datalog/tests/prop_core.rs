//! In-crate property tests for the first-order machinery: substitution
//! algebra, unification (MGU laws), θ-subsumption, and chase soundness
//! against the evaluation engine.

use proptest::prelude::*;
use sqo_datalog::chase::{group_removal_sound, ChaseContext};
use sqo_datalog::eval::answer_query;
use sqo_datalog::program::EdbDatabase;
use sqo_datalog::subsume::body_subsumes;
use sqo_datalog::unify::{match_atoms, mgu};
use sqo_datalog::{
    Atom, CmpOp, Comparison, Const, ConstraintSet, Literal, PredSym, Query, Subst, Term, Var,
};
use std::collections::{BTreeMap, BTreeSet};

fn small_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => (0usize..4).prop_map(|i| Term::var(["X", "Y", "Z", "W"][i])),
        2 => (0i64..4).prop_map(Term::int),
        1 => (0u64..3).prop_map(Term::oid),
    ]
}

fn small_atom() -> impl Strategy<Value = Atom> {
    (
        (0usize..3).prop_map(|i| ["p", "q", "r"][i].to_string()),
        prop::collection::vec(small_term(), 1..3),
    )
        .prop_map(|(p, args)| Atom::new(p, args))
}

/// Atoms over a disjoint variable namespace (`P0`..`P3`) — matching
/// requires pattern and target variables to be standardized apart.
fn pattern_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => (0usize..4).prop_map(|i| Term::var(["P0", "P1", "P2", "P3"][i])),
        2 => (0i64..4).prop_map(Term::int),
        1 => (0u64..3).prop_map(Term::oid),
    ]
}

fn pattern_atom() -> impl Strategy<Value = Atom> {
    (
        (0usize..3).prop_map(|i| ["p", "q", "r"][i].to_string()),
        prop::collection::vec(pattern_term(), 1..3),
    )
        .prop_map(|(p, args)| Atom::new(p, args))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// An MGU really unifies, and is idempotent.
    #[test]
    fn mgu_unifies_and_is_idempotent(a in small_atom(), b in small_atom()) {
        if let Some(s) = mgu(&a, &b) {
            let ua = s.apply_atom(&a);
            let ub = s.apply_atom(&b);
            prop_assert_eq!(&ua, &ub, "not a unifier: {}", s);
            // Idempotence: applying twice changes nothing.
            prop_assert_eq!(s.apply_atom(&ua), ua);
        }
    }

    /// If atoms unify, any common ground instance is an instance of the
    /// MGU's result (most-generality, witnessed on sampled groundings).
    #[test]
    fn mgu_most_general_on_ground_witnesses(
        a in small_atom(),
        b in small_atom(),
        assign in prop::collection::vec(0i64..4, 4),
    ) {
        // Ground both atoms with the same assignment; if the groundings
        // coincide, the MGU must exist and match the grounding.
        let mut ground = Subst::new();
        for (i, name) in ["X", "Y", "Z", "W"].iter().enumerate() {
            ground.bind(Var::new(*name), Term::int(assign[i]));
        }
        let ga = ground.apply_atom(&a);
        let gb = ground.apply_atom(&b);
        if ga == gb {
            let s = mgu(&a, &b);
            prop_assert!(s.is_some(), "common instance exists but no MGU: {a} vs {b}");
            // The grounding factors through the MGU.
            let s = s.unwrap();
            let via = ground.apply_atom(&s.apply_atom(&a));
            prop_assert_eq!(via, ga);
        }
    }

    /// One-way matching: a successful match instantiates the pattern to
    /// the target exactly, and never binds target variables. Pattern
    /// variables are standardized apart, matching the documented
    /// precondition (all optimizer call sites rename first).
    #[test]
    fn matching_instantiates_pattern_only(pat in pattern_atom(), tgt in small_atom()) {
        let mut s = Subst::new();
        if match_atoms(&pat, &tgt, &mut s) {
            prop_assert_eq!(s.apply_atom(&pat), tgt.clone());
            // No target variable is in the substitution's domain unless it
            // is also a pattern variable.
            let pat_vars: BTreeSet<&Var> = pat.vars().collect();
            for v in tgt.vars() {
                if !pat_vars.contains(v) {
                    prop_assert!(s.lookup(v).is_none(), "bound target var {v}");
                }
            }
        }
    }

    /// θ-subsumption: a standardized-apart renaming of a body subsumes
    /// the original, and subsumption is stable under extending the
    /// target.
    #[test]
    fn subsumption_reflexive_and_monotone(
        body in prop::collection::vec(small_atom().prop_map(Literal::Pos), 1..4),
        extra in small_atom().prop_map(Literal::Pos),
    ) {
        // Rename the pattern side apart (the documented precondition).
        let mut rename = Subst::new();
        for name in ["X", "Y", "Z", "W"] {
            rename.bind(Var::new(name), Term::var(format!("P_{name}")));
        }
        let pattern: Vec<Literal> = body.iter().map(|l| rename.apply_literal(l)).collect();
        prop_assert!(body_subsumes(&pattern, &body));
        let mut bigger = body.clone();
        bigger.push(extra);
        prop_assert!(body_subsumes(&pattern, &bigger));
    }

    /// Substitution composition law: (s1 ∘ s2)(t) = s2(s1(t)).
    #[test]
    fn composition_law(
        t in small_term(),
        bind1 in (0usize..4, 0i64..4),
        bind2 in (0usize..4, 0i64..4),
    ) {
        let names = ["X", "Y", "Z", "W"];
        let mut s1 = Subst::new();
        s1.bind(Var::new(names[bind1.0]), Term::int(bind1.1));
        let mut s2 = Subst::new();
        s2.bind(Var::new(names[bind2.0]), Term::int(bind2.1));
        let composed = s1.compose(&s2);
        prop_assert_eq!(
            composed.apply_term(&t),
            s2.apply_term(&s1.apply_term(&t))
        );
    }
}

// Chase-based removal soundness checked against the evaluation engine:
// if the chase approves removing an atom, the reduced query returns the
// same answers on a database closed under the (inclusion) dependency.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn approved_removals_preserve_answers(
        edges in prop::collection::vec((0u64..8, 0u64..8), 1..12),
    ) {
        use sqo_datalog::clause::{Constraint, ConstraintHead};
        // Dependency: student(X) <- takes(X, Y)   (OID identification).
        let ic = Constraint::new(
            ConstraintHead::Atom(Atom::new("student", vec![Term::var("X")])),
            vec![Literal::pos("takes", vec![Term::var("X"), Term::var("Y")])],
        );
        // Database closed under the dependency.
        let mut db = EdbDatabase::new();
        for (f, t) in &edges {
            db.insert(PredSym::new("takes"), &[Const::Oid(*f), Const::Oid(*t)]).unwrap();
            db.insert(PredSym::new("student"), &[Const::Oid(*f)]).unwrap();
        }
        let q = Query::new(
            "q",
            vec![Term::var("X"), Term::var("Y")],
            vec![
                Literal::pos("student", vec![Term::var("X")]),
                Literal::pos("takes", vec![Term::var("X"), Term::var("Y")]),
            ],
        );
        let ctx = ChaseContext::from_constraints(&[ic], vec![], BTreeMap::new());
        let solver = ConstraintSet::new();
        let kept = vec![Literal::pos("takes", vec![Term::var("X"), Term::var("Y")])];
        let ok = group_removal_sound(
            &kept,
            &[Atom::new("student", vec![Term::var("X")])],
            &q.projection.iter().filter_map(Term::as_var).cloned().collect(),
            &ctx,
            &solver,
        );
        prop_assert!(ok, "removal should be approved under the dependency");
        let reduced = Query::new("q", q.projection.clone(), kept);
        let (full, _) = answer_query(&db, &q).unwrap();
        let (red, _) = answer_query(&db, &reduced).unwrap();
        let mut full: Vec<&[Const]> = full.rows().collect();
        let mut red: Vec<&[Const]> = red.rows().collect();
        full.sort();
        red.sort();
        prop_assert_eq!(full, red);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Interner round-trip: `intern → as_str → intern` is the identity,
    /// and symbol equality/ordering mirror string equality/ordering
    /// (symbol order is observable through canonical forms and the
    /// `BTreeMap<Var, _>` substitution iteration order).
    #[test]
    fn interner_round_trip(a in "[a-zA-Z0-9_]{0,12}", b in "[a-zA-Z0-9_]{0,12}") {
        use sqo_datalog::intern::Sym;
        let sa = Sym::intern(&a);
        let sb = Sym::intern(&b);
        prop_assert_eq!(sa.as_str(), a.as_str());
        prop_assert_eq!(sb.as_str(), b.as_str());
        prop_assert_eq!(Sym::intern(sa.as_str()), sa);
        prop_assert_eq!(sa == sb, a == b);
        prop_assert_eq!(sa.cmp(&sb), a.cmp(&b));
    }

    /// Interning through the typed wrappers agrees with raw interning:
    /// a `Var` and a `PredSym` built from the same text resolve to the
    /// same underlying symbol text.
    #[test]
    fn interner_typed_wrappers_round_trip(name in "[a-z][a-zA-Z0-9_]{0,10}") {
        let v = Var::new(name.clone());
        let p = PredSym::new(name.clone());
        prop_assert_eq!(v.name(), name.as_str());
        prop_assert_eq!(p.name(), name.as_str());
        prop_assert_eq!(Var::new(v.name()), v);
    }
}

/// Operands whose `Display` texts collide in every way a comparison of
/// renderings can: variable names that prefix each other, `Int` and `Real`
/// of equal value (`3` and `3.0`, one text a prefix of the other), strings
/// (quoted, escaped, one past what `canonical()` renders on the stack),
/// booleans and OIDs.
fn cmp_operand() -> impl Strategy<Value = Term> {
    prop_oneof![
        4 => (0usize..5).prop_map(|i| Term::var(["A", "Ab", "Abc", "B", "X"][i])),
        2 => (-2i64..4).prop_map(Term::int),
        2 => (-2i64..4).prop_map(|v| Term::real(v as f64)),
        1 => (0i64..4).prop_map(|h| Term::real(h as f64 + 0.5)),
        2 => (0usize..5).prop_map(|i| {
            let long = "x".repeat(60);
            Term::str(["a", "ab", "A", "q\"uote", long.as_str()][i])
        }),
        1 => any::<bool>().prop_map(|b| Term::Const(Const::Bool(b))),
        1 => (0u64..3).prop_map(Term::oid),
    ]
}

fn any_cmp() -> impl Strategy<Value = Comparison> {
    let op = (0usize..6).prop_map(|i| {
        [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][i]
    });
    (cmp_operand(), op, cmp_operand()).prop_map(|(l, op, r)| Comparison::new(l, op, r))
}

/// `Comparison::canonical` as it was defined: render both orientations,
/// keep the one that sorts first.
fn canonical_by_text(c: &Comparison) -> Comparison {
    let flipped = c.flip();
    if format!("{flipped}") < format!("{c}") {
        flipped
    } else {
        *c
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The stack-rendered `canonical()` picks the orientation the
    /// `format!` definition picks, and `same_as` is equality of canonical
    /// orientations — reflexive comparisons (`X = X`, `X < X`) included.
    #[test]
    fn canonical_and_same_as_agree_with_the_rendered_definition(
        a in any_cmp(),
        b in any_cmp(),
        flip_b in any::<bool>(),
    ) {
        prop_assert_eq!(a.canonical(), canonical_by_text(&a), "{}", a);
        prop_assert_eq!(a.flip().canonical(), a.canonical(), "{}", a);
        prop_assert!(a.same_as(&a.flip()) && a.same_as(&a), "{}", a);
        // Mostly unrelated pairs; half the time force the related one.
        let b = if flip_b { a.flip() } else { b };
        prop_assert_eq!(
            a.same_as(&b),
            canonical_by_text(&a) == canonical_by_text(&b),
            "{} vs {}", a, b
        );
    }
}
