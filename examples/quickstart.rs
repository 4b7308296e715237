//! Quickstart: the full Figure 2 pipeline on the paper's university
//! schema.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use semantic_sqo::{SemanticOptimizer, Verdict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1 happens here: the ODL schema of Figure 1 is translated into
    // Datalog relations and integrity constraints (OID identification,
    // subclass hierarchy, inverse relationships, one-to-one constraints,
    // keys).
    let mut opt = SemanticOptimizer::university();

    println!("== Datalog schema (Step 1) ==");
    for rel in &opt.catalog().relations {
        let args: Vec<&str> = rel.args.iter().map(|a| a.name.as_str()).collect();
        println!("  {}({})", rel.pred, args.join(", "));
    }
    println!(
        "  + {} schema-derived integrity constraints",
        opt.catalog().constraints.len()
    );

    // The ODMG-93 extension the paper argues for: application-specific
    // integrity constraints. IC4: all faculty members are 30 or older.
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, Name, Age, Salary, Rank, Addr).")?;

    // The query of Application 2: names of persons younger than 30.
    let oql = "select x.name from x in Person where x.age < 30";
    println!("\n== Original OQL ==\n{oql}");

    let report = opt.optimize(oql)?;
    println!("\n== Datalog translation (Step 2) ==\n{}", report.datalog);

    match &*report.verdict {
        Verdict::Contradiction { ic_name, note, .. } => {
            println!(
                "\nThe query is CONTRADICTORY ({}): {note}",
                ic_name.as_deref().unwrap_or("-")
            );
        }
        Verdict::Equivalents(_) => {
            println!("\n== Semantically equivalent queries (Steps 3 + 4) ==");
            for (i, e) in report.proper_rewrites().enumerate() {
                println!("\n--- rewrite {} --- (delta: {})", i + 1, e.delta);
                for s in &e.steps {
                    println!("    step: {s}");
                }
                println!("{}", e.oql);
            }
        }
    }

    // A contradictory query: the same residue that *adds* a restriction
    // can refute one.
    let bad = "select x.name from x in Faculty where x.age < 25";
    let report = opt.optimize(bad)?;
    println!("\n== {bad} ==");
    if let Verdict::Contradiction { ic_name, note, .. } = &*report.verdict {
        println!(
            "CONTRADICTION detected by {} — {note}; the query is never evaluated.",
            ic_name.as_deref().unwrap_or("-")
        );
    }
    Ok(())
}
