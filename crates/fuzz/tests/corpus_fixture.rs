//! Pins the committed `subsumption_permuted_cmps.repro` corpus fixture to
//! the behaviour it was written to capture: the two same-shape ICs
//! (`S0`/`S1`) restrict *different* attribute positions of the same
//! class, so the two residue application orders produce body-permuted —
//! alpha-equivalent — variants that only the exact canonical-form
//! [`SubsumptionIndex`] collapses. Replaying it must (a) pass the
//! answer-set oracle and (b) actually fire the `search.subsumed_pruned`
//! counter.
//!
//! This file is its own test binary on purpose: the counter assertion
//! reads deltas from the process-global `sqo-obs` registry, and
//! concurrent tests in the same binary would pollute them.

use sqo_fuzz::repro::{parse, replay};
use sqo_obs as obs;

#[test]
fn subsumption_fixture_prunes_and_matches_oracle() {
    let text = include_str!("../../../tests/corpus/subsumption_permuted_cmps.repro");
    let case = parse(text).expect("fixture parses");

    obs::reset();
    let report = replay(&case);
    assert!(report.ok, "replay failed: {}", report.detail);
    let pruned = obs::snapshot()
        .counters
        .get("search.subsumed_pruned")
        .copied()
        .unwrap_or(0);
    assert!(
        pruned > 0,
        "fixture no longer exercises subsumption pruning (search.subsumed_pruned = 0)"
    );
}
