//! The chase behind `serve_exec`'s join eliminations does the work its
//! dependencies require and no more: optimizing the served Application 3
//! and Application 4 templates on a cold optimizer, no chase is stopped
//! by a bound, the chase's match steps stay under a ceiling a little
//! above the measured count, and each template keeps its equivalents.
//!
//! Step counts are deterministic (one per candidate atom a match tries),
//! so unlike a wall-time row this gate does not move with the machine.
//! A chase that fires a dependency whose head the facts already satisfy
//! runs dozens of these chases into its null bound; one that matches the
//! derived constraints as well as the written ones takes 4 to 7 times
//! the steps.

use semantic_sqo::datalog::parser::{parse_program, Statement};
use semantic_sqo::SemanticOptimizer;

/// The constraint and view text the `serve_exec` workload of the
/// benchmark prepares its session with (a copy: the benchmark is a
/// workspace of its own).
const EXEC_ICS: &str = "\
ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).
ic IC3: Value > 3000 <- taxes_withheld(X, 0.1, Value), faculty(X, N, A, S, R, Ad).
ic IC_PROF: Salary >= 90000 <- faculty(X, N, Age, Salary, Rank, Ad), Rank = \"professor\".
asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W).";

/// `serve_exec`'s Application 4 template: the four-hop path the ASR folds.
const A4: &str = "select w from x in Student y in x.takes z in y.is_section_of \
                  v in z.has_sections w in v.has_ta where x.name = \"student0\"";

/// `serve_exec`'s Application 3 template: the key join.
const A3: &str = "select list(x.student_id, t.employee_id) from x in Student y in x.takes \
                  z in y.is_taught_by t in TA v in t.takes w in v.is_taught_by \
                  where z.name = w.name and x.name = \"student0\"";

/// A cold optimizer prepared with [`EXEC_ICS`], as a session is.
fn exec_optimizer() -> SemanticOptimizer {
    let mut opt = SemanticOptimizer::university();
    for statement in parse_program(EXEC_ICS).expect("the constraint text parses") {
        match statement {
            Statement::Constraint(ic) => opt.add_constraint(ic),
            Statement::Rule(view) => opt.add_view(view),
            other => panic!("unexpected statement {other:?}"),
        }
    }
    opt
}

/// Optimizes `oql` on a cold optimizer: its equivalents, and the chases
/// stopped by a bound and the chase's match steps the report counts.
fn chase_work(oql: &str) -> (usize, u64, u64) {
    let report = exec_optimizer()
        .optimize(oql)
        .expect("the template optimizes");
    let counter = |name| report.stats.counters.get(name).copied().unwrap_or(0);
    (
        report.equivalents().len(),
        counter("chase.budget_exhausted"),
        counter("chase.steps"),
    )
}

#[test]
fn the_asr_fold_template_chases_within_its_work() {
    let (equivalents, exhausted, steps) = chase_work(A4);
    println!("A4: {equivalents} equivalents, {exhausted} chases stopped, {steps} steps");
    assert_eq!(equivalents, 21);
    assert_eq!(exhausted, 0);
    // 20 663 measured.
    assert!(steps <= 21_500, "{steps} chase steps");
}

#[test]
fn the_key_join_template_chases_within_its_work() {
    let (equivalents, exhausted, steps) = chase_work(A3);
    println!("A3: {equivalents} equivalents, {exhausted} chases stopped, {steps} steps");
    assert_eq!(equivalents, 17);
    assert_eq!(exhausted, 0);
    // 20 066 measured.
    assert!(steps <= 21_000, "{steps} chase steps");
}
