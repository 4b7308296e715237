//! Provenance and explain-layer tests over the paper's university queries:
//! golden derivation chains for the Application 2 scope reduction and the
//! Application 3 key-join elimination, plus the structural guarantees the
//! explain surface makes (non-empty provenance for every equivalent,
//! refuting-IC attribution for contradictions, per-run counter deltas).

use semantic_sqo::{SemanticOptimizer, Verdict};
use sqo_obs as obs;
use std::sync::Mutex;

/// Serializes the tests in this binary: `OptimizationReport::stats` is a
/// delta over the process-global observability registry, so concurrent
/// optimizer runs in sibling tests would bleed into each other's windows.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Application 2: the scope-reduction rewrite carries a one-step chain
/// naming the driving residue (anchored at `person`) and IC4 as source.
#[test]
fn scope_reduction_provenance_golden() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let report = opt
        .optimize("select x.name from x in Person where x.age < 30")
        .unwrap();
    let reduced = report
        .proper_rewrites()
        .find(|e| e.oql.to_string().contains("x not in Faculty"))
        .expect("scope-reduced variant");
    let chain = reduced.provenance();
    assert_eq!(chain.steps.len(), 1, "chain: {chain}");
    let step = &chain.steps[0];
    assert_eq!(step.kind, "scope-reduction");
    let residue = step.residue.as_deref().expect("driving residue named");
    assert!(
        residue.starts_with('r') && residue.ends_with("@person"),
        "residue id `{residue}` should be anchored at person"
    );
    let ic = step.ic.as_deref().expect("source IC named");
    assert!(
        ic.starts_with("IC4"),
        "source IC `{ic}` should trace to IC4"
    );
    assert!(step.detail.contains("faculty"), "detail: {}", step.detail);
}

/// Application 3: the full key-join elimination is a three-step chain —
/// key-equality introduction (driven by the KEY(Faculty.name) residue),
/// then removal of the implied name comparison, then elimination of the
/// now-redundant faculty join.
#[test]
fn key_join_elimination_provenance_golden() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    let report = opt
        .optimize(
            r#"select list(x.student_id, t.employee_id)
               from x in Student
                    y in x.takes
                    z in y.is_taught_by
                    t in TA
                    v in t.takes
                    w in v.is_taught_by
               where z.name = w.name"#,
        )
        .unwrap();
    let eliminated = report
        .proper_rewrites()
        .find(|e| {
            let s = e.oql.to_string();
            s.contains("z = w") && !s.contains("z.name = w.name") && e.steps.len() == 3
        })
        .expect("key-join-eliminated variant");
    let chain = eliminated.provenance();
    let kinds: Vec<&str> = chain.steps.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        ["key-equality", "comparison-removal", "join-elimination"],
        "chain: {chain}"
    );
    let first = &chain.steps[0];
    assert_eq!(first.ic.as_deref(), Some("KEY(Faculty.name)"));
    let residue = first.residue.as_deref().expect("key residue named");
    assert!(residue.ends_with("@faculty"), "residue id `{residue}`");
    // The removal steps are entailment-driven (no residue of their own).
    assert!(chain.steps[1].residue.is_none());
    assert!(chain.steps[2].residue.is_none());
}

/// Every equivalent query — the unchanged original included — carries a
/// non-empty provenance chain, and it survives into `explain_json`.
#[test]
fn every_equivalent_has_nonempty_provenance() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    opt.add_view_text(
        "asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W)",
    )
    .unwrap();
    for oql in [
        "select x.name from x in Person where x.age < 30",
        r#"select w
           from x in Student
                y in x.takes
                z in y.is_section_of
                v in z.has_sections
                w in v.has_ta
           where x.name = "james""#,
    ] {
        let report = opt.optimize(oql).unwrap();
        assert!(!report.equivalents().is_empty());
        for e in report.equivalents() {
            let chain = e.provenance();
            assert!(!chain.steps.is_empty(), "empty chain for {}", e.datalog);
            if e.delta.is_empty() {
                assert_eq!(chain.steps[0].kind, "original");
            } else {
                // Proper rewrites attribute every step to a residue, an
                // IC/view, or an entailment note.
                for s in &chain.steps {
                    assert!(
                        s.residue.is_some() || s.ic.is_some() || !s.detail.is_empty(),
                        "unattributed step in chain for {}",
                        e.datalog
                    );
                }
            }
        }
        let json = report.explain_json();
        assert!(json.contains("\"provenance\": [{"), "{json}");
        assert!(!json.contains("\"provenance\": []"), "{json}");
    }
}

/// Contradiction reports name the refuting IC and close the chain with a
/// `contradiction` step — both in the API and in the verdict payload.
#[test]
fn contradiction_provenance_names_refuting_ic() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text(
        "ic IC3: Value > 3000 <- taxes_withheld(X, 0.1, Value), faculty(X, N, A, S, R, Ad).",
    )
    .unwrap();
    let report = opt
        .optimize(
            r#"select z.name, w.city
               from x in Student
                    y in x.takes
                    z in y.is_taught_by
                    w in z.address
               where x.name = "john" and z.taxes_withheld(10%) < 1000"#,
        )
        .unwrap();
    let Verdict::Contradiction { ic_name, .. } = &*report.verdict else {
        panic!("expected contradiction, got {:?}", report.verdict);
    };
    assert_eq!(ic_name.as_deref(), Some("IC3"));
    let chain = report.contradiction_provenance().expect("chain present");
    let last = chain.steps.last().unwrap();
    assert_eq!(last.kind, "contradiction");
    assert_eq!(last.ic.as_deref(), Some("IC3"));
    let json = report.explain_json();
    assert!(json.contains("\"verdict\": \"contradiction\""));
    assert!(json.contains("\"ic\": \"IC3\""));
}

/// Union pruning attributes each dropped branch to its refuting IC.
#[test]
fn union_pruning_carries_contradiction_provenance() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let report = opt
        .optimize_union(
            "select x.name from x in Faculty where x.age < 20 \
             union select x.name from x in Student where x.age < 20",
        )
        .unwrap();
    let pruned = report.pruned_provenance();
    assert_eq!(pruned.len(), 1);
    let (branch, ic, chain) = &pruned[0];
    assert_eq!(*branch, 0, "the faculty branch is first in source order");
    assert!(
        ic.as_deref().is_some_and(|n| n.starts_with("IC4")),
        "refuting IC: {ic:?}"
    );
    assert_eq!(chain.steps.last().unwrap().kind, "contradiction");
}

/// The report's stats are a per-run delta: one optimizer query, the
/// Step-3 spans present, and the search counters live.
#[test]
fn report_stats_capture_per_run_counters() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let report = opt
        .optimize("select x.name from x in Person where x.age < 30")
        .unwrap();
    let stats = &report.stats;
    assert_eq!(stats.counter(obs::Counter::OptimizerQueries), 1);
    assert_eq!(stats.counter(obs::Counter::TranslateQueries), 1);
    assert!(stats.counter(obs::Counter::SearchLevels) > 0);
    assert!(stats.counter(obs::Counter::UnifyAttempts) > 0);
    assert!(stats.spans.contains_key("step3.search"));
    assert!(stats.spans.contains_key("step2.translate_query"));
    // A second run on the same optimizer reuses the compiled residues, so
    // its delta must not re-count compilation.
    let second = opt
        .optimize("select x.name from x in Person where x.age < 30")
        .unwrap();
    assert_eq!(second.stats.counter(obs::Counter::ResiduesAttached), 0);
    assert_eq!(second.stats.counter(obs::Counter::OptimizerQueries), 1);
}
