//! Application 4: access support relations — join elimination and join
//! introduction over a long path expression.
//!
//! ```text
//! cargo run --release --example asr_paths
//! ```

use semantic_sqo::objdb::{execute, UniversityConfig};
use semantic_sqo::{SemanticOptimizer, Verdict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut data = UniversityConfig {
        students: 1000,
        courses: 80,
        ..Default::default()
    }
    .build()?;
    // The ASR of the paper: the canonical extension over
    // takes ∘ is_section_of ∘ has_sections ∘ has_ta.
    data.db.define_asr(
        "asr",
        "Student",
        &["takes", "is_section_of", "has_sections", "has_ta"],
    )?;

    let mut opt = SemanticOptimizer::university();
    for rule in data.db.asr_rules() {
        opt.add_view(rule);
    }

    // Q: relate the first and last object of the path.
    println!("=== Q: students named james -> TAs (full path) ===");
    let report = opt.optimize(
        r#"select w
           from x in Student
                y in x.takes
                z in y.is_section_of
                v in z.has_sections
                w in v.has_ta
           where x.name = "student1""#,
    )?;
    let Verdict::Equivalents(eqs) = &*report.verdict else {
        unreachable!()
    };
    let folded = eqs
        .iter()
        .find(|e| {
            e.datalog.positive_atoms().any(|a| a.pred.name() == "asr") && e.datalog.body.len() <= 3
        })
        .expect("folded variant");
    let (rows_orig, cost_orig) = execute(&data.db, &eqs[0].datalog)?;
    let (rows_fold, cost_fold) = execute(&data.db, &folded.datalog)?;
    assert!(
        rows_orig.rows().eq(rows_fold.rows()),
        "fold preserves answers"
    );
    println!("  original: {cost_orig}");
    println!("  folded:   {cost_fold}");
    println!(
        "  relationship traversals {} -> {} (ASR probes: {})",
        cost_orig.rel_traversals, cost_fold.rel_traversals, cost_fold.view_probes
    );
    println!("  folded OQL:\n{}", indent(&folded.oql.to_string()));

    // Q1: relate the first object with the *section* (4th object). The
    // ASR applies only after IC9 introduces the has_ta join.
    println!("\n=== Q1: join introduction via IC9 ===");
    let mut opt2 = SemanticOptimizer::university();
    for rule in data.db.asr_rules() {
        opt2.add_view(rule);
    }
    // IC9: every section of a course some student takes has a TA.
    opt2.add_constraint_text(
        "ic IC9: has_ta(V, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V).",
    )?;
    let report = opt2.optimize(
        r#"select v
           from x in Student
                y in x.takes
                z in y.is_section_of
                v in z.has_sections
           where x.name = "student2""#,
    )?;
    let Verdict::Equivalents(eqs) = &*report.verdict else {
        unreachable!()
    };
    println!("  {} equivalent queries; those using the ASR:", eqs.len());
    for e in eqs {
        if e.datalog.positive_atoms().any(|a| a.pred.name() == "asr") {
            let (rows, cost) = execute(&data.db, &e.datalog)?;
            println!("    {} | answers={} | {}", e.datalog, rows.len(), cost);
        }
    }
    let (rows0, cost0) = execute(&data.db, &eqs[0].datalog)?;
    println!("  original | answers={} | {}", rows0.len(), cost0);
    Ok(())
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
