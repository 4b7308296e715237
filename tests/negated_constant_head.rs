//! A negated residue head refutes only a query atom it maps into. Under
//! `T`, every faculty member who is a professor and an employee is at
//! least 30; its contrapositive says an employee under 30 is not a
//! faculty member *whose rank is "professor"*, and a constant refutes
//! only a query term equal to it. Under `U`, a person who is a faculty
//! member whose salary equals their rank is at least 30 (which holds on
//! every base: the two differ by type); its contrapositive's head
//! `not faculty(X, _, _, S, S, _)` repeats a variable, which refutes only
//! a faculty atom whose salary and rank are one term. The queries for
//! faculty members under 25 are therefore satisfiable: on a base holding
//! a 24-year-old lecturer and a 50-year-old professor each returns the
//! lecturer, and so must every equivalent Step 3 finds. Nor does an
//! equivalent hold one negated atom twice under two namings of the
//! variables only it has.

use semantic_sqo::datalog::{Atom, Const, Literal, Query, Term};
use semantic_sqo::objdb::{execute, ObjectDb, Value};
use semantic_sqo::odl::fixtures::university_schema;
use semantic_sqo::{SemanticOptimizer, Verdict};

const T: &str =
    r#"ic T: A >= 30 <- faculty(X, N, A, S, "professor", Ad), employee(X, N2, A, S2, Ad2)."#;
const QUERY: &str = "select x.name from x in Employee, y in Faculty \
                     where x = y and x.age = y.age and x.age < 25";

const U: &str = "ic U: A >= 30 <- person(X, N, A, Ad), faculty(X, N2, A2, S, S, Ad2).";
const U_QUERY: &str = "select x.name from x in Person, y in Faculty where x = y and x.age < 25";

/// Optimizes `query` under `ic` and executes every equivalent on the
/// two-member base: each must answer the lecturer alone.
fn every_equivalent_answers_the_lecturer(ic: &str, query: &str) {
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text(ic).unwrap();
    let report = opt.optimize(query).unwrap();
    let Verdict::Equivalents(equivalents) = &*report.verdict else {
        panic!("a lecturer under 25 answers:\n{}", report.explain());
    };
    assert!(equivalents.len() > 1, "{}", report.explain());

    let mut db = ObjectDb::new(university_schema());
    for (name, age, rank) in [("lee", 24, "lecturer"), ("pat", 50, "professor")] {
        let attrs = vec![
            ("name", name.into()),
            ("age", Value::Int(age)),
            ("rank", rank.into()),
        ];
        db.create("Faculty", attrs).unwrap();
    }
    for eq in equivalents {
        let mut shapes: Vec<String> = (eq.datalog.body.iter())
            .filter_map(|l| match l {
                Literal::Neg(a) => Some(negation_shape(a, &eq.datalog)),
                _ => None,
            })
            .collect();
        let negated = shapes.len();
        shapes.sort();
        shapes.dedup();
        assert_eq!(
            shapes.len(),
            negated,
            "a negated atom twice: {}",
            eq.datalog
        );
        let (answers, _) = execute(&db, &eq.datalog).unwrap();
        let rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
        assert_eq!(rows, [[Const::Str("lee".into())]], "{}", eq.datalog);
    }
}

/// `a` with each variable the query has only inside `a` named by its
/// first position there: two renamings of one negated atom read alike.
fn negation_shape(a: &Atom, q: &Query) -> String {
    let occurrences = |t: &Term| {
        let body = q.body.iter().flat_map(Literal::iter_vars);
        let vars = body.filter(|v| Term::Var(**v) == *t).count();
        vars + q.projection.iter().filter(|p| *p == t).count()
    };
    let mut local: Vec<&Term> = Vec::new();
    let args: Vec<String> = (a.args.iter())
        .map(|t| {
            let inside = a.args.iter().filter(|u| *u == t).count();
            if t.as_var().is_none() || occurrences(t) != inside {
                return t.to_string();
            }
            let at = local.iter().position(|u| *u == t).unwrap_or_else(|| {
                local.push(t);
                local.len() - 1
            });
            format!("_{at}")
        })
        .collect();
    format!("{}({})", a.pred, args.join(", "))
}

#[test]
fn a_constant_in_a_negated_head_refutes_only_an_equal_term() {
    every_equivalent_answers_the_lecturer(T, QUERY);
}

#[test]
fn a_repeated_variable_in_a_negated_head_refutes_only_equal_terms() {
    every_equivalent_answers_the_lecturer(U, U_QUERY);
}
