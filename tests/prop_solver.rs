//! Property tests for the comparison-constraint solver: soundness and
//! (restricted) completeness against a brute-force model finder over a
//! small domain.

use proptest::prelude::*;
use semantic_sqo::datalog::{CmpOp, Comparison, ConstraintSet, Sat, Term};

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
