//! The central correctness property of semantic query optimization:
//! every "semantically equivalent" query SQO produces must return
//! exactly the answers of the original on every database satisfying the
//! integrity constraints.
//!
//! We generate random university object bases (which satisfy the ICs by
//! construction), random queries from a template family, run the full
//! pipeline, and execute every variant.

use proptest::prelude::*;
use semantic_sqo::datalog::program::Relation;
use semantic_sqo::objdb::{execute, UniversityConfig};
use semantic_sqo::{SemanticOptimizer, Verdict};

fn normalize_rows(answers: Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<&[_]> = answers.rows().collect();
    rows.sort();
    rows.into_iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect()
}

/// A small family of query templates over the university schema.
fn query_template(idx: usize, age: i64, frag: &str) -> String {
    match idx % 5 {
        0 => format!("select x.name from x in Person where x.age < {age}"),
        1 => format!("select x.name from x in Student where x.age >= {age}"),
        2 => format!(
            "select z.name from x in Student, y in x.takes, z in y.is_taught_by \
             where x.name != \"{frag}\""
        ),
        3 => format!(
            "select x.student_id, z.salary from x in Student, y in x.takes, \
             z in y.is_taught_by where z.salary > {}",
            age * 1000
        ),
        _ => format!(
            "select list(x.name, v.number) from x in Student, y in x.takes, \
             z in y.is_section_of, v in z.has_sections where x.age < {age}"
        ),
    }
}

proptest! {
    // Each case builds a database and runs the pipeline; keep the count
    // moderate.
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn sqo_variants_preserve_answers(
        seed in 0u64..10_000,
        template in 0usize..5,
        age in 18i64..60,
        frag in "[a-z]{3,6}",
    ) {
        let data = UniversityConfig {
            persons: 40,
            students: 50,
            faculty: 12,
            courses: 8,
            sections_per_course: 2,
            takes_per_student: 3,
            seed,
            ..Default::default()
        }
        .build()
        .unwrap();

        let mut opt = SemanticOptimizer::university();
        // ICs that hold on the generated data by construction.
        opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).").unwrap();
        opt.add_constraint_text("ic IC1: Salary > 40000 <- faculty(X, N, A, Salary, R, Ad).").unwrap();

        let src = query_template(template, age, &frag);
        let report = opt.optimize(&src).unwrap();
        match &*report.verdict {
            Verdict::Contradiction { .. } => {
                // A contradiction verdict must mean zero answers on any
                // IC-satisfying database.
                let plain = SemanticOptimizer::university();
                let t = plain
                    .translate(&semantic_sqo::oql::parse_oql(&src).unwrap())
                    .unwrap();
                let (rows, _) = execute(&data.db, &t.query).unwrap();
                prop_assert!(
                    rows.is_empty(),
                    "contradiction verdict but {} answers for `{src}`",
                    rows.len()
                );
            }
            Verdict::Equivalents(eqs) => {
                let (baseline, _) = execute(&data.db, &eqs[0].datalog).unwrap();
                let baseline = normalize_rows(baseline);
                for e in &eqs[1..] {
                    let (rows, _) = execute(&data.db, &e.datalog).unwrap();
                    prop_assert_eq!(
                        normalize_rows(rows),
                        baseline.clone(),
                        "variant diverges for `{}`:\n  original:  {}\n  variant:   {}\n  steps: {:?}",
                        src,
                        eqs[0].datalog,
                        e.datalog,
                        e.steps.iter().map(|s| s.to_string()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
