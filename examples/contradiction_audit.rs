//! A semantic "query audit": detect queries that can never return
//! answers, so they are rejected without touching the object base
//! (Example 1 and Application 1 of the paper).
//!
//! ```text
//! cargo run --example contradiction_audit
//! ```

use semantic_sqo::{SemanticOptimizer, Verdict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut opt = SemanticOptimizer::university();

    // IC1: faculty salaries exceed 40 000.
    opt.add_constraint_text("ic IC1: Salary > 40000 <- faculty(X, N, A, Salary, R, Ad).")?;
    // IC4: faculty members are 30 or older.
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")?;
    // IC3 (derived in the paper from IC1, IC2 and a ground fact): with a
    // 10% rate, every faculty member pays more than 3000 in taxes.
    opt.add_constraint_text(
        "ic IC3: Value > 3000 <- taxes_withheld(X, 0.1, Value), faculty(X, N, A, S, R, Ad).",
    )?;

    let queries = [
        // Application 1: the Example 2 query — taxes below 1000 at 10%
        // contradicts IC3.
        (
            "A1 (taxes below 1000)",
            r#"select z.name, w.city
               from x in Student
                    y in x.takes
                    z in y.is_taught_by
                    w in z.address
               where x.name = "john" and z.taxes_withheld(10%) < 1000"#,
        ),
        // Young faculty: contradicts IC4.
        (
            "young faculty",
            "select x.name from x in Faculty where x.age < 21",
        ),
        // Underpaid faculty: contradicts IC1.
        (
            "underpaid faculty",
            "select x.name from x in Faculty where x.salary < 30000",
        ),
        // Self-contradictory comparisons, no ICs needed.
        (
            "empty age range",
            "select x.name from x in Person where x.age < 20 and x.age > 60",
        ),
        // Satisfiable control queries.
        (
            "ok: adults",
            "select x.name from x in Person where x.age >= 18",
        ),
        (
            "ok: senior faculty",
            "select x.name from x in Faculty where x.age > 50 and x.salary > 50000",
        ),
    ];

    println!("{:<24} verdict", "query");
    println!("{}", "-".repeat(60));
    for (label, src) in queries {
        let report = opt.optimize(src)?;
        match &*report.verdict {
            Verdict::Contradiction { ic_name, note, .. } => println!(
                "{label:<24} CONTRADICTION [{}] {note}",
                ic_name.as_deref().unwrap_or("query-local")
            ),
            Verdict::Equivalents(v) => {
                println!("{label:<24} satisfiable ({} equivalent forms)", v.len())
            }
        }
    }
    Ok(())
}
