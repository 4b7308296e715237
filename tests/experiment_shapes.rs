//! Shape assertions for the experiment suite: the qualitative claims of
//! EXPERIMENTS.md, checked as hard test invariants (not timings — those
//! are the `tables` binary's business — but the *who-wins-and-how*
//! structure).

use semantic_sqo::objdb::{choose_best, execute, execute_with, ExecOptions};
use semantic_sqo::SemanticOptimizer;
use sqo_bench::{
    asr_scenario, contradiction_scenario, key_join_scenario, scope_reduction_scenario,
};

/// A1: detection work is database-independent; the refuted query indeed
/// has zero answers.
#[test]
fn a1_detection_is_database_independent() {
    let (mut opt, oql, db) = contradiction_scenario(150);
    // Detection never touches the object base (opt holds no reference to
    // db at all) and reports a contradiction.
    let report = opt.optimize(oql).unwrap();
    assert!(report.is_contradiction());
    // Evaluating anyway scans real tuples yet returns nothing.
    let plain = SemanticOptimizer::university();
    let t = plain
        .translate(&semantic_sqo::oql::parse_oql(oql).unwrap())
        .unwrap();
    let (rows, cost) = execute(&db, &t.query).unwrap();
    assert!(rows.is_empty());
    assert!(cost.tuples_examined > 0);
}

/// A2: optimized object fetches equal (1 - f) · |Person| — the paper's
/// "retrieve only those object instances". Measured against the
/// scan-only reference executor, which isolates the *semantic* effect:
/// under the indexed engine the original already range-probes `age`, so
/// the exact scan counts below only hold without declared indexes.
#[test]
fn a2_fetches_scale_with_complement() {
    for f in [0.25f64, 0.75] {
        let s = scope_reduction_scenario(400, f);
        let scan = ExecOptions::scan_only();
        let (r1, c1) = execute_with(&s.db, &s.original, scan).unwrap();
        let (r2, c2) = execute_with(&s.db, &s.optimized, scan).unwrap();
        assert_eq!(r1.len(), r2.len(), "answers preserved at f={f}");
        let person_extent = s.db.extent("Person").len() as u64;
        let faculty_extent = s.db.extent("Faculty").len() as u64;
        assert_eq!(c1.object_fetches, person_extent, "original scans everyone");
        assert_eq!(
            c2.object_fetches,
            person_extent - faculty_extent,
            "optimized fetches only the complement at f={f}"
        );
        assert!(c2.extent_probes > 0, "extent machinery engaged");
        // The indexed engine returns the same answers and never fetches
        // more than the scan-only reference.
        let (r1i, c1i) = execute(&s.db, &s.original).unwrap();
        assert_eq!(r1i.len(), r1.len(), "indexed answers preserved at f={f}");
        assert!(c1i.object_fetches <= c1.object_fetches);
    }
}

/// A3: the rewrite eliminates *all* Faculty object fetches (OID
/// comparison instead of name comparison) and reduces total fetches.
#[test]
fn a3_faculty_fetches_drop_to_zero() {
    let s = key_join_scenario(48);
    let (r1, c1) = execute(&s.db, &s.original).unwrap();
    let (r2, c2) = execute(&s.db, &s.optimized).unwrap();
    assert_eq!(r1.len(), r2.len(), "answers preserved");
    let orig_faculty = c1.per_pred.get("faculty").copied().unwrap_or(0);
    let opt_faculty = c2.per_pred.get("faculty").copied().unwrap_or(0);
    assert!(orig_faculty > 0, "original fetches faculty objects");
    assert_eq!(opt_faculty, 0, "optimized compares OIDs without fetching");
    assert!(c2.object_fetches < c1.object_fetches);
}

/// A4: the fold removes the relationship-chain traversals in favour of
/// view probes, and the cost model prefers it.
#[test]
fn a4_fold_wins_traversals_and_cost_model() {
    let s = asr_scenario(120, 12);
    let (r1, c1) = execute(&s.db, &s.original).unwrap();
    let (r2, c2) = execute(&s.db, &s.optimized).unwrap();
    assert_eq!(r1.len(), r2.len(), "answers preserved");
    assert!(c2.view_probes > 0, "ASR actually probed");
    assert!(
        c2.rel_traversals + c2.view_probes < c1.rel_traversals,
        "fold reduces relation accesses: {} + {} vs {}",
        c2.rel_traversals,
        c2.view_probes,
        c1.rel_traversals
    );
    // The cardinality-based chooser (the paper's "cost-based optimizer")
    // prefers the folded query.
    let (best, costs) = choose_best(&s.db, &[s.original.clone(), s.optimized.clone()]);
    assert_eq!(best, 1, "estimates: {costs:?}");
}

/// F2: Step 3 cost grows with the number of applicable ICs, and the
/// variant count is bounded by the heuristics.
#[test]
fn f2_step3_growth_is_bounded_by_heuristics() {
    use sqo_bench::optimizer_with_n_ics;
    let counts: Vec<usize> = [0usize, 3, 6]
        .iter()
        .map(|&n| {
            let (mut opt, q) = optimizer_with_n_ics(n);
            opt.optimize(q).unwrap().equivalents().len()
        })
        .collect();
    assert!(counts[0] < counts[1] && counts[1] <= counts[2] + 1);
    // The width bound holds even with many ICs.
    let (mut opt, q) = optimizer_with_n_ics(16);
    assert!(opt.optimize(q).unwrap().equivalents().len() <= 64 + 1);
}
