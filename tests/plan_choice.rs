//! Plan choice on the served execution templates: the cost model prices
//! the steps the evaluator runs, so the paper's rewrites win where they
//! are cheaper to execute.
//!
//! The base and the templates are the `serve_exec` workload's of
//! `benchmark/`, at a twentieth of its size: a university with one
//! professor in fifty paid at least 90 000, the Application 4 access
//! support relation defined, IC4, IC3 and the professor salary bound known.

use semantic_sqo::datalog::eval::{execution_order, AccessPath};
use semantic_sqo::datalog::parser::{parse_program, Statement};
use semantic_sqo::datalog::Literal;
use semantic_sqo::objdb::exec::rewrite_for_extents;
use semantic_sqo::objdb::{
    execute, execute_with, priced_steps, ExecOptions, ObjectDb, UniversityConfig, Value,
};
use semantic_sqo::{OptimizationReport, PreparedOptimizer, SemanticOptimizer};

const ICS: &str = "\
ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).
ic IC3: Value > 3000 <- taxes_withheld(X, 0.1, Value), faculty(X, N, A, S, R, Ad).
ic IC_PROF: Salary >= 90000 <- faculty(X, N, Age, Salary, Rank, Ad), Rank = \"professor\".
asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W).";

const A4: &str = "select w from x in Student y in x.takes z in y.is_section_of \
                  v in z.has_sections w in v.has_ta where x.name = \"student7\"";
const E3: &str = "select x.name from x in Faculty where x.rank = \"professor\"";
const A3: &str = "select list(x.student_id, t.employee_id) from x in Student y in x.takes \
                  z in y.is_taught_by t in TA v in t.takes w in v.is_taught_by \
                  where z.name = w.name and x.name = \"student7\"";
const A2: &str = "select x.name from x in Person where x.age < 25";

fn base() -> (ObjectDb, PreparedOptimizer) {
    let mut data = UniversityConfig {
        salary_spread: 49_000.0,
        seed: 1,
        ..UniversityConfig::default()
    }
    .build()
    .unwrap();
    for (i, f) in data.faculty.iter().enumerate() {
        let professor = i % 50 == 0;
        let rank = if professor { "professor" } else { "assistant" };
        data.db.set_attr(*f, "rank", rank.into()).unwrap();
        if professor {
            data.db
                .set_attr(*f, "salary", Value::Real(90_000.0 + i as f64))
                .unwrap();
        }
    }
    data.db
        .define_asr(
            "asr",
            "Student",
            &["takes", "is_section_of", "has_sections", "has_ta"],
        )
        .unwrap();
    let mut opt = SemanticOptimizer::university();
    for statement in parse_program(ICS).unwrap() {
        match statement {
            Statement::Constraint(ic) => opt.add_constraint(ic),
            Statement::Rule(view) => opt.add_view(view),
            other => panic!("constraints and views only: {other:?}"),
        }
    }
    (data.db, opt.prepare())
}

fn chosen(db: &ObjectDb, report: &OptimizationReport) -> semantic_sqo::Query {
    let (_, eq, _) = report.best_plan(db).expect("equivalents to choose from");
    eq.datalog.clone()
}

/// Application 4: with `Name = "student7"` propagated into the `student`
/// atom, every candidate pays the same one probe of `student.name`, and
/// the single probe of the access support relation undercuts the four-hop
/// chain — with or without the redundant atoms Step 3 adds to it.
#[test]
fn a4_template_picks_the_folded_asr_plan() {
    let (db, prep) = base();
    let report = prep.optimize(A4).unwrap();
    let plan = chosen(&db, &report);
    let atoms: Vec<&str> = plan.positive_atoms().map(|a| a.pred.name()).collect();
    assert_eq!(atoms, ["student", "asr"], "chosen: {plan}");
    let (rows, cost) = execute(&db, &plan).unwrap();
    assert!(cost.view_probes > 0, "the ASR is probed: {cost}");
    assert_eq!(cost.rel_traversals, 0, "no hop is walked: {cost}");
    assert_eq!(cost.scans, 0, "the name is probed, not scanned for: {cost}");
    let (reference, _) = execute_with(&db, &report.datalog, ExecOptions::scan_only()).unwrap();
    assert_eq!(rows.len(), reference.len());
}

/// The indexed rewrite wins on expected candidates, which is what the
/// evaluator and the estimator both choose by: `rank` has a hash index
/// like every string attribute, but a bound variable over two ranks
/// promises half the relation, where the IC-introduced salary bound counts
/// the professors exactly. So the bound plan is chosen and runs as one
/// range probe; the original is one probe of `rank`. (Run, that probe
/// finds just the professors too: what the rewrite buys over an indexed
/// original is ROADMAP item 2's to measure.)
#[test]
fn e3_template_still_picks_the_range_probe_plan() {
    let (db, prep) = base();
    {
        let edb = db.edb_pinned();
        let faculty = edb.relation(&"faculty".into()).unwrap();
        let rank = 4;
        assert!(faculty.has_hash_index(rank));
        assert_eq!(faculty.distinct(rank), 2);
    }
    let report = prep.optimize(E3).unwrap();
    let plan = chosen(&db, &report);
    let has_bound = |l: &Literal| matches!(l, Literal::Cmp(c) if c.to_string().contains("90000"));
    assert!(plan.body.iter().any(has_bound), "chosen: {plan}");
    let (rows, cost) = execute(&db, &plan).unwrap();
    assert_eq!(
        (cost.range_probes, cost.index_probes, cost.scans),
        (1, 0, 0),
        "{cost}"
    );
    assert_eq!(cost.tuples_examined, rows.len() as u64, "{cost}");
    let salary = 3;
    let paths: Vec<AccessPath> = priced_steps(&db, &plan)
        .into_iter()
        .filter_map(|(_, path)| path)
        .collect();
    assert_eq!(paths, [AccessPath::RangeProbe(salary)], "priced as run");
    // The original, unbounded: one probe of `rank`.
    let (original_rows, original) = execute(&db, &report.datalog).unwrap();
    assert_eq!(
        (original.range_probes, original.index_probes, original.scans),
        (0, 1, 0),
        "{original}"
    );
    assert_eq!(original_rows.len(), rows.len());
}

/// One ordering, two consumers: for every candidate of every template the
/// estimator prices the literals in the order the evaluator runs them, and
/// the access paths it assumed for the chosen plan are the ones the
/// evaluator's counters report.
#[test]
fn estimator_prices_the_evaluators_own_steps() {
    let (db, prep) = base();
    for oql in [A4, E3, A3, A2] {
        let report = prep.optimize(oql).unwrap();
        for eq in report.equivalents() {
            let physical = rewrite_for_extents(&db, &eq.datalog);
            let executed: Vec<&Literal> = execution_order(&physical.body)
                .iter()
                .map(|step| step.literal)
                .collect();
            let priced = priced_steps(&db, &eq.datalog);
            let priced: Vec<&Literal> = priced.iter().map(|(l, _)| l).collect();
            assert_eq!(priced, executed, "candidate {}", eq.datalog);
        }
        let plan = chosen(&db, &report);
        let paths: Vec<AccessPath> = priced_steps(&db, &plan)
            .into_iter()
            .filter_map(|(_, path)| path)
            .collect();
        let count = |want: fn(&AccessPath) -> bool| paths.iter().filter(|p| want(p)).count();
        let (_, cost) = execute(&db, &plan).unwrap();
        let range_probes = count(|p| matches!(p, AccessPath::RangeProbe(_)));
        assert_eq!(range_probes as u64, cost.range_probes, "{plan}");
        let passes = count(|p| matches!(p, AccessPath::Scan | AccessPath::Build));
        assert_eq!(passes > 0, cost.scans > 0, "{plan}: {paths:?} vs {cost}");
    }
}
