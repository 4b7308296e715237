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
//! lecturer, and so must every equivalent Step 3 finds.

use semantic_sqo::datalog::Const;
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
        let (answers, _) = execute(&db, &eq.datalog).unwrap();
        let rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
        assert_eq!(rows, [[Const::Str("lee".into())]], "{}", eq.datalog);
    }
}

#[test]
fn a_constant_in_a_negated_head_refutes_only_an_equal_term() {
    every_equivalent_answers_the_lecturer(T, QUERY);
}

#[test]
fn a_repeated_variable_in_a_negated_head_refutes_only_equal_terms() {
    every_equivalent_answers_the_lecturer(U, U_QUERY);
}
