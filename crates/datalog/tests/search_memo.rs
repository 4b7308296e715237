//! What the search's two economies may never change: the contradiction
//! probe still reaches nodes analysed after the variant budget is spent, and a search's outcome does not depend on what earlier
//! searches left in the context's structure memo.

use sqo_datalog::parser::{parse_constraint, parse_query};
use sqo_datalog::residue::ResidueSet;
use sqo_datalog::search::{self, Outcome, SearchConfig};
use sqo_datalog::transform::TransformContext;
use std::collections::BTreeMap;

fn ctx_of(ics: &[String]) -> TransformContext {
    let ics = ics.iter().map(|s| parse_constraint(s).unwrap()).collect();
    TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new())
}

/// Everything an `Outcome` carries: queries, ops, IC names, residue ids
/// and notes, in order.
fn render(o: &Outcome) -> String {
    format!("{o:#?}")
}

/// 70 admissible range residues on `A` spend the variant budget (64) while
/// the root is expanded, so every depth-1 node is analysed with the budget
/// gone and gets the probe only. `C1` puts `B > 10` among those nodes and
/// `C2`'s head `B < 5` contradicts it there — nowhere else.
#[test]
fn contradiction_behind_a_spent_variant_budget_is_still_reported() {
    let ranges: Vec<String> = (0..70)
        .map(|i| format!("ic R{i}: A > {i} <- p(X, A, B)."))
        .collect();
    let mut clashing = vec![
        "ic C1: B > 10 <- p(X, A, B).".to_string(),
        "ic C2: B < 5 <- p(X, A, B).".to_string(),
    ];
    clashing.extend(ranges.iter().cloned());
    let q = parse_query("Q(X) <- p(X, A, B)").unwrap();
    let cfg = SearchConfig::default();

    // Without the clash, the budget is spent on depth-1 variants alone: no
    // node below the root is ever enumerated.
    let mut harmless = vec!["ic C1: B > 10 <- p(X, A, B).".to_string()];
    harmless.extend(ranges);
    let spent = search::optimize(&q, &ctx_of(&harmless), &cfg);
    assert_eq!(spent.variants().len(), cfg.max_variants);
    assert!(spent.variants().iter().all(|v| v.steps.len() <= 1));

    let ctx = ctx_of(&clashing);
    let out = search::optimize(&q, &ctx, &cfg);
    let Outcome::Contradiction { ic_name, steps, .. } = &out else {
        panic!("the probe was skipped: {}", render(&out));
    };
    assert_eq!(ic_name.as_deref(), Some("C2"));
    assert_eq!(steps.len(), 1);
    assert_eq!(steps[0].ic_name.as_deref(), Some("C1"));
    assert_eq!(steps[0].op.to_string(), "add B > 10");
}

/// On one context: a query, the same query again, and a constant-shifted
/// sibling (same structure, other comparison) each get the outcome a fresh
/// context gives them.
#[test]
fn warm_memo_outcomes_equal_cold_memo_outcomes() {
    let ics: Vec<String> = [
        "ic IC4: Age >= 30 <- faculty(X, N, Age).",
        "ic IC4b: Age < 70 <- faculty(X, N, Age).",
        "ic IC5: person(X, N, Age) <- faculty(X, N, Age).",
        "ic IC6: Age > 0 <- person(X, N, Age).",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cfg = SearchConfig::default();
    let shared = ctx_of(&ics);
    for src in [
        "Q(N) <- person(X, N, Age), Age < 30",
        "Q(N) <- person(X, N, Age), Age < 30",
        "Q(N) <- person(X, N, Age), Age < 25",
        "Q(N) <- person(X, N, Age), Age > 40",
        // Contradicts IC4 on a structure no earlier query built.
        "Q(N) <- faculty(X, N, Age), Age < 18",
        "Q(N) <- faculty(X, N, Age), Age < 75",
    ] {
        let q = parse_query(src).unwrap();
        let warm = search::optimize(&q, &shared, &cfg);
        let cold = search::optimize(&q, &ctx_of(&ics), &cfg);
        assert_eq!(render(&warm), render(&cold), "`{src}`");
    }
}
