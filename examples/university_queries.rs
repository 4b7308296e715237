//! Measured optimization on a synthetic university object base.
//!
//! Builds the Figure 1 schema at configurable scale, runs the paper's
//! Application 2 and 3 queries through the full pipeline, executes the
//! original and the SQO'd queries with the object-level cost model, and
//! lets the cardinality-based plan chooser pick the winner — the role
//! the paper assigns to "a conventional cost-based optimizer".
//!
//! ```text
//! cargo run --release --example university_queries [scale]
//! ```

use semantic_sqo::objdb::{choose_best, execute, UniversityConfig};
use semantic_sqo::{SemanticOptimizer, Verdict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let data = UniversityConfig {
        persons: 500 * scale,
        students: 800 * scale,
        faculty: 100 * scale,
        courses: 60 * scale,
        ..Default::default()
    }
    .build()?;
    println!(
        "object base: {} objects, {} persons in the Person extent",
        data.db.object_count(),
        data.db.extent("Person").len()
    );

    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")?;

    // ---------- Application 2: access scope reduction ----------
    println!("\n=== Application 2: scope reduction ===");
    let report = opt.optimize("select x.name from x in Person where x.age < 30")?;
    let Verdict::Equivalents(equivalents) = &*report.verdict else {
        unreachable!("satisfiable query");
    };
    let queries: Vec<_> = equivalents.iter().map(|e| e.datalog.clone()).collect();
    let (best, costs) = choose_best(&data.db, &queries);
    for (i, e) in equivalents.iter().enumerate() {
        let (rows, cost) = execute(&data.db, &e.datalog)?;
        println!(
            "  variant {i}{}: est={:.0} | {} | answers={}",
            if i == best { " (chosen)" } else { "" },
            costs[i],
            cost,
            rows.len()
        );
    }

    // ---------- Application 3: key-based join reduction ----------
    println!("\n=== Application 3: key join reduction ===");
    let report = opt.optimize(
        r#"select list(x.student_id, t.employee_id)
           from x in Student
                y in x.takes
                z in y.is_taught_by
                t in TA
                v in t.takes
                w in v.is_taught_by
           where z.name = w.name"#,
    )?;
    let Verdict::Equivalents(equivalents) = &*report.verdict else {
        unreachable!("satisfiable query");
    };
    let queries: Vec<_> = equivalents.iter().map(|e| e.datalog.clone()).collect();
    let (best, costs) = choose_best(&data.db, &queries);
    let (orig_rows, orig_cost) = execute(&data.db, &equivalents[0].datalog)?;
    let (best_rows, best_cost) = execute(&data.db, &equivalents[best].datalog)?;
    println!("  original: est={:.0} | {orig_cost}", costs[0]);
    println!("  chosen:   est={:.0} | {best_cost}", costs[best]);
    println!(
        "  faculty object fetches: {} -> {}",
        orig_cost.object_fetches, best_cost.object_fetches
    );
    assert_eq!(orig_rows.len(), best_rows.len(), "equivalence check");
    println!(
        "  (both return {} rows — semantically equivalent)",
        orig_rows.len()
    );
    println!(
        "\n  chosen OQL:\n{}",
        indent(&equivalents[best].oql.to_string())
    );
    Ok(())
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
