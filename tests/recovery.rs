//! Crash recovery, end to end: writes acknowledged by a durable
//! `ObjectDb` and never `persist()`ed survive a drop-and-reopen through
//! the write-ahead log alone, and an optimized query answers the same on
//! the recovered base as it did on the live one.

use semantic_sqo::datalog::Const;
use semantic_sqo::objdb::{execute, ObjectDb, Value};
use semantic_sqo::odl::fixtures::university_schema;
use semantic_sqo::{PreparedOptimizer, SemanticOptimizer};

const YOUNG: &str = "select x.name from x in Person where x.age < 30";
const ANNS_SECTIONS: &str = "select y from x in Student y in x.takes where x.name = \"ann\"";

/// Answers of the plan the optimizer picks for `oql` against `db`, sorted.
fn optimized_answers(prep: &PreparedOptimizer, db: &ObjectDb, oql: &str) -> Vec<Vec<Const>> {
    let report = prep.optimize(oql).unwrap();
    let (_, plan, _) = report
        .best_plan(db)
        .expect("a satisfiable query has a plan");
    let (answers, _) = execute(db, &plan.datalog).unwrap();
    let mut rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
    rows.sort();
    rows
}

#[test]
fn unpersisted_writes_answer_identically_after_reopen() {
    let dir = std::env::temp_dir().join(format!("sqo_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let prep = opt.prepare();
    // Application 2 fires: the rewrite keeps faculty out of the scan.
    assert!(prep
        .optimize(YOUNG)
        .unwrap()
        .proper_rewrites()
        .any(|e| e.oql.to_string().contains("x not in Faculty")));

    let before = {
        let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        for (class, name, age) in [
            ("Person", "pat", 25),
            ("Person", "quinn", 41),
            ("Faculty", "ruth", 52),
            ("Student", "ann", 20),
            ("Student", "bob", 33),
        ] {
            db.create(class, vec![("name", name.into()), ("age", Value::Int(age))])
                .unwrap();
        }
        let ann = db.extent("Student")[0];
        for _ in 0..2 {
            let section = db.create("Section", vec![]).unwrap();
            db.link(ann, "takes", section).unwrap();
        }
        [YOUNG, ANNS_SECTIONS].map(|oql| optimized_answers(&prep, &db, oql))
        // Dropped without persist(): the WAL is the only durable state.
    };
    assert_eq!(before[0].len(), 2, "pat and ann are under 30");
    assert_eq!(before[1].len(), 2, "ann takes both sections");

    let back = ObjectDb::open(university_schema(), &dir, 4).unwrap();
    let after = [YOUNG, ANNS_SECTIONS].map(|oql| optimized_answers(&prep, &back, oql));
    assert_eq!(after, before);
    std::fs::remove_dir_all(&dir).unwrap();
}
