//! The chase that validates a join elimination does bounded work. An IC
//! whose body is a product (G: six unrelated `takes` atoms) or a long
//! chain over the relation it derives (H: a `takes` head over five
//! chained `takes` atoms) makes every match of its body into the chased
//! facts enumerate a product of them. Each optimization below runs on a
//! thread of its own behind a deadline, so an unbounded chase fails the
//! test instead of hanging it, and each must come back `Ok`: on the
//! longer paths with chases refused (`chase.budget_exhausted`).
//!
//! G's `A < C` is never implied by the path query, so G rewrites
//! nothing: only the root's join eliminations run the chase, and the
//! test stays cheap in a debug build. Without the bound each of those
//! chases enumerates the product. On the 3-hop path G's body matches to
//! its end within the bound; the 4-hop path has enough `takes` facts to
//! exhaust it. On the 3-hop path G must not cost a sound elimination:
//! the last `takes` atom is implied through `taken_by`'s inverse.

use semantic_sqo::{OptimizationReport, SemanticOptimizer};
use std::sync::mpsc;
use std::time::Duration;

const G: &str = "ic G: A = C <- takes(A, B), takes(C, D), takes(E, F), takes(G, H), \
                 takes(I, J), takes(K, L), A < C.";
const H: &str = "ic H: takes(X, Y) <- takes(X, A), takes(B, A), takes(B, C), takes(D, C), \
                 takes(D, Y).";

/// A Student/takes/taken_by path of `hops` sections.
fn path_query(hops: usize) -> String {
    let mut binds = vec!["s1 in Student".to_string(), "c1 in s1.takes".to_string()];
    for i in 2..=hops {
        binds.push(format!("s{i} in c{}.taken_by", i - 1));
        binds.push(format!("c{i} in s{i}.takes"));
    }
    format!("select s1.name from {}", binds.join(" "))
}

/// Optimizes `oql` under the university ICs plus `ic` on a thread of its
/// own; the report, or a failure once 20 s pass (the thread is then left
/// running: joining it would hang).
fn optimize_within_deadline(ic: &'static str, oql: String) -> OptimizationReport {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut opt = SemanticOptimizer::university();
        opt.add_constraint_text(ic).expect("the IC parses");
        tx.send(opt.optimize(&oql))
            .expect("the test waits for the report");
    });
    let report = rx
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("optimizing under {ic} did not finish within 20 s"))
        .expect("the query optimizes");
    worker.join().expect("the optimizing thread finished");
    report
}

/// The report's `chase.budget_exhausted` for `oql` under `ic`.
fn chases_refused(ic: &'static str, oql: String) -> u64 {
    let report = optimize_within_deadline(ic, oql);
    report
        .stats
        .counters
        .get("chase.budget_exhausted")
        .copied()
        .unwrap_or(0)
}

#[test]
fn a_product_egd_body_is_refused_within_the_bound() {
    assert!(chases_refused(G, path_query(4)) > 0);
}

#[test]
fn a_product_egd_leaves_the_implied_last_hop_removable() {
    let report = optimize_within_deadline(G, path_query(3));
    let last_hop_only = |removed: &[_]| {
        let removed: Vec<String> = removed.iter().map(ToString::to_string).collect();
        removed == ["takes(S3, C3)"]
    };
    assert!(
        report
            .equivalents()
            .iter()
            .any(|e| e.delta.added.is_empty() && last_hop_only(&e.delta.removed)),
        "removing takes(S3, C3) is implied by taken_by(C2, S3) and the inverse tgd"
    );
}

#[test]
fn a_chained_tgd_body_is_refused_within_the_bound() {
    assert!(chases_refused(H, path_query(6)) > 0);
}
