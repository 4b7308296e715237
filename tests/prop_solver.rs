//! Property tests for the comparison-constraint solver: soundness and
//! (restricted) completeness against a brute-force model finder over a
//! small domain; and the laws of the one equality and order on constants
//! the solver, the evaluator and the indexes share.

use proptest::prelude::*;
use semantic_sqo::datalog::fxhash::FxHasher;
use semantic_sqo::datalog::{CmpOp, Comparison, Const, ConstraintSet, Sat, Term};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

const DOMAIN: std::ops::Range<i64> = 0..5;
const VARS: [&str; 4] = ["A", "B", "C", "D"];

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..VARS.len()).prop_map(|i| Term::var(VARS[i])),
        DOMAIN.prop_map(Term::int),
    ]
}

fn op_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn cmp_strategy() -> impl Strategy<Value = Comparison> {
    (term_strategy(), op_strategy(), term_strategy())
        .prop_map(|(l, op, r)| Comparison::new(l, op, r))
}

/// Brute force: is there an integer assignment over the small domain
/// satisfying all comparisons?
fn brute_force_sat(cmps: &[Comparison]) -> bool {
    let eval_term = |t: &Term, asg: &[i64]| -> i64 {
        match t {
            Term::Const(c) => match c {
                semantic_sqo::datalog::Const::Int(v) => *v,
                _ => unreachable!("ints only in this strategy"),
            },
            Term::Var(v) => {
                let i = VARS.iter().position(|n| *n == v.name()).unwrap();
                asg[i]
            }
        }
    };
    let n = DOMAIN.end - DOMAIN.start;
    let total = n.pow(VARS.len() as u32);
    (0..total).any(|mut code| {
        let mut asg = [0i64; 4];
        for slot in &mut asg {
            *slot = DOMAIN.start + (code % n);
            code /= n;
        }
        cmps.iter().all(|c| {
            let l = eval_term(&c.lhs, &asg);
            let r = eval_term(&c.rhs, &asg);
            c.op.test(l.cmp(&r))
        })
    })
}

/// Constants for the summary-vs-general test: few enough values, equal
/// across `Int`/`Real` (`2` and `2.0`), that duplicate and equal-valued
/// bounds of both strictnesses meet on one variable, and strings, which
/// no number can be ordered against.
fn mixed_const_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => (1i64..3).prop_map(Term::int),
        3 => (2i64..5).prop_map(|h| Term::real(h as f64 / 2.0)),
        1 => (0usize..2).prop_map(|i| Term::str(["a", "b"][i])),
    ]
}

/// Mostly `var ⋚ const` bounds in either orientation — the fragment the
/// interval summary answers — with var–var edges, `=`/`!=` and ground
/// comparisons mixed in so some sets fall outside it.
fn mixed_cmp_strategy() -> impl Strategy<Value = Comparison> {
    let var = || (0usize..3).prop_map(|i| Term::var(["A", "A", "B"][i]));
    let order_op = || {
        prop_oneof![
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ]
    };
    prop_oneof![
        6 => (var(), order_op(), mixed_const_strategy())
            .prop_map(|(v, op, k)| Comparison::new(v, op, k)),
        3 => (mixed_const_strategy(), order_op(), var())
            .prop_map(|(k, op, v)| Comparison::new(k, op, v)),
        1 => (var(), op_strategy(), var()).prop_map(|(l, op, r)| Comparison::new(l, op, r)),
        1 => (var(), prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Ne)], mixed_const_strategy())
            .prop_map(|(v, op, k)| Comparison::new(v, op, k)),
        1 => (mixed_const_strategy(), order_op(), mixed_const_strategy())
            .prop_map(|(l, op, r)| Comparison::new(l, op, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Summary-decided ≡ general-path-decided: whatever answers a probe —
    /// the interval summary of a bounds-only set, or the closure — says
    /// what asserting the probe (or its negation) onto a copy says. The
    /// copy carries `C <= D` over two variables nothing else mentions,
    /// which changes no decision and keeps it on the general path.
    #[test]
    fn summary_decides_like_the_general_path(
        cmps in prop::collection::vec(mixed_cmp_strategy(), 0..6),
        probes in prop::collection::vec(mixed_cmp_strategy(), 4..12),
    ) {
        let set = ConstraintSet::from_comparisons(cmps.iter());
        let mut general = set.clone();
        general.assert_cmp(&Comparison::new(Term::var("C"), CmpOp::Le, Term::var("D")));
        prop_assert_eq!(set.check(), general.check(), "{:?}", cmps);
        // A satisfiable set implies each member in either orientation —
        // why Step 3 never looks a residue head up in the query's body.
        if set.check() == Sat::Satisfiable {
            for c in &cmps {
                prop_assert!(set.implies(c) && set.implies(&c.flip()), "{:?} =/=> {}", cmps, c);
            }
        }
        for c in &probes {
            prop_assert_eq!(
                set.sat_with(c),
                general.clone().assert_cmp(c),
                "{:?} + {}", cmps, c
            );
            // A ground probe is implied when it is true, whatever the set.
            let ground_truth = match (&c.lhs, &c.rhs) {
                (Term::Const(a), Term::Const(b)) => a.order(b).map(|ord| c.op.test(ord)),
                _ => None,
            };
            let implied = ground_truth
                .unwrap_or_else(|| general.clone().assert_cmp(&c.negate()) == Sat::Unsatisfiable);
            prop_assert_eq!(set.implies(c), implied, "{:?} => {}", cmps, c);
        }
    }

    /// Soundness: if the solver says UNSAT, no integer model exists.
    /// (The converse can fail only through density — `X > 1 ∧ X < 2` is
    /// real-satisfiable but has no integer model — so it is not asserted.)
    #[test]
    fn solver_unsat_implies_no_integer_model(cmps in prop::collection::vec(cmp_strategy(), 1..7)) {
        let solver = ConstraintSet::from_comparisons(cmps.iter());
        if solver.check() == Sat::Unsatisfiable {
            prop_assert!(!brute_force_sat(&cmps), "solver UNSAT but model exists: {cmps:?}");
        }
    }

    /// Implication soundness: if the solver says `set ⊨ c`, every integer
    /// model of the set satisfies `c`.
    #[test]
    fn implication_is_sound(
        cmps in prop::collection::vec(cmp_strategy(), 1..5),
        candidate in cmp_strategy(),
    ) {
        let solver = ConstraintSet::from_comparisons(cmps.iter());
        if solver.check() == Sat::Satisfiable && solver.implies(&candidate) {
            // set ∧ ¬candidate must have no integer model.
            let mut with_neg = cmps.clone();
            with_neg.push(candidate.negate());
            prop_assert!(
                !brute_force_sat(&with_neg),
                "claimed implication fails: {cmps:?} ⊭ {candidate}"
            );
        }
    }

    /// Monotonicity: asserting more constraints never turns UNSAT into SAT.
    #[test]
    fn assertion_is_monotone(cmps in prop::collection::vec(cmp_strategy(), 2..7)) {
        let mut solver = ConstraintSet::new();
        let mut unsat_seen = false;
        for c in &cmps {
            let state = solver.assert_cmp(c);
            if unsat_seen {
                prop_assert_eq!(state, Sat::Unsatisfiable);
            }
            unsat_seen |= state == Sat::Unsatisfiable;
        }
    }

    /// Every constraint set implies each of its own members.
    #[test]
    fn implies_own_members(cmps in prop::collection::vec(cmp_strategy(), 1..5)) {
        let solver = ConstraintSet::from_comparisons(cmps.iter());
        if solver.check() == Sat::Satisfiable {
            for c in &cmps {
                prop_assert!(solver.implies(c), "set does not imply member {c}");
            }
        }
    }

    /// Flipping a comparison never changes satisfiability.
    #[test]
    fn flip_preserves_sat(cmps in prop::collection::vec(cmp_strategy(), 1..6)) {
        let flipped: Vec<Comparison> = cmps.iter().map(Comparison::flip).collect();
        let a = ConstraintSet::from_comparisons(cmps.iter()).check();
        let b = ConstraintSet::from_comparisons(flipped.iter()).check();
        prop_assert_eq!(a, b);
    }
}

/// Numbers where `Int` against `Real` is hard to get right — the ends of
/// `i64`, ±2^53 ± 2 (past 2^53 `f64` skips integers), integral and
/// fractional reals, ±∞, NaN, −0.0 — and a few constants of every other
/// kind.
fn law_const_strategy() -> impl Strategy<Value = Const> {
    const BIG: i64 = 1 << 53;
    const INTS: [i64; 5] = [i64::MIN, i64::MAX, 0, 3, -3];
    const REALS: [f64; 14] = [
        3.0,
        -3.0,
        2.5,
        -2.5,
        0.5,
        -0.0,
        i64::MIN as f64,
        i64::MAX as f64,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        (BIG + 2) as f64,
        -((BIG + 2) as f64),
    ];
    prop_oneof![
        2 => (0usize..INTS.len()).prop_map(|i| Const::Int(INTS[i])),
        4 => (-2i64..3, 0usize..2).prop_map(|(d, neg)| Const::Int([BIG, -BIG][neg] + d)),
        2 => (0usize..REALS.len()).prop_map(|i| Const::from(REALS[i])),
        3 => (-2i64..3, 0usize..2).prop_map(|(d, neg)| Const::from(([BIG, -BIG][neg] + d) as f64)),
        1 => (0usize..2).prop_map(|i| Const::from(["a", "b"][i])),
        1 => (0usize..2).prop_map(|i| Const::Bool(i == 1)),
        1 => (1u64..3).prop_map(Const::Oid),
    ]
}

fn fx_hash(c: &Const) -> u64 {
    let mut h = FxHasher::default();
    c.hash(&mut h);
    h.finish()
}

/// The kinds an order comparison stays within; `None` for OIDs, which
/// have none.
fn order_kind(c: &Const) -> Option<u8> {
    match c {
        Const::Int(_) | Const::Real(_) => Some(0),
        Const::Str(_) => Some(1),
        Const::Bool(_) => Some(2),
        Const::Oid(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// `cmp` is a total order, `==` is its `Equal`, equal constants hash
    /// alike, and `order` is `cmp` exactly where an order comparison is
    /// meaningful.
    #[test]
    fn const_equality_order_and_hash_agree(
        a in law_const_strategy(),
        b in law_const_strategy(),
        c in law_const_strategy(),
    ) {
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse(), "{:?} {:?}", a, b);
        if a <= b && b <= c {
            prop_assert!(a <= c, "{:?} <= {:?} <= {:?}", a, b, c);
            if a < b || b < c {
                prop_assert!(a < c, "{:?} {:?} {:?}", a, b, c);
            }
        }
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal, "{:?} {:?}", a, b);
        if a == b {
            prop_assert_eq!(fx_hash(&a), fx_hash(&b), "{:?} {:?}", a, b);
        }
        let comparable = order_kind(&a).is_some() && order_kind(&a) == order_kind(&b);
        prop_assert_eq!(
            a.order(&b),
            comparable.then(|| a.cmp(&b)),
            "{:?} {:?}", a, b
        );
    }
}
