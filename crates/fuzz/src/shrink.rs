//! Greedy structural shrinking of a mismatching case.
//!
//! Each pass proposes a smaller [`CaseSpec`]; a candidate is kept only if
//! the oracle still reports a mismatch on it (oracle *errors* mean the
//! candidate is invalid — those are discarded, never kept). Passes repeat
//! until a whole round makes no progress, bounded by a total oracle
//! budget so shrinking can never run away.

use crate::oracle::{run_inputs_full, CaseStatus};
use crate::spec::CaseSpec;

/// Hard cap on oracle invocations during one shrink.
const MAX_ORACLE_RUNS: usize = 200;

/// Shrink `spec` while the oracle keeps reporting a mismatch *under the
/// recovery flag that found it* — a failure specific to the save/recover
/// path must not vanish mid-shrink. Returns the smallest mismatching
/// spec found (possibly `spec` unchanged).
pub fn shrink(spec: &CaseSpec, recovery: bool) -> CaseSpec {
    let mut best = spec.clone();
    let mut runs = 0usize;

    let still_fails = |candidate: &CaseSpec, runs: &mut usize| -> bool {
        if *runs >= MAX_ORACLE_RUNS {
            return false;
        }
        *runs += 1;
        matches!(
            run_inputs_full(&candidate.inputs(), recovery),
            Ok(CaseStatus::Mismatch(_))
        )
    };

    loop {
        let mut progressed = false;

        // Drop ICs one at a time.
        let mut i = 0;
        while i < best.ics.len() {
            let mut cand = best.clone();
            cand.ics.remove(i);
            if still_fails(&cand, &mut runs) {
                best = cand;
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Drop where-predicates one at a time.
        let mut i = 0;
        while i < best.query.preds.len() {
            let mut cand = best.clone();
            cand.query.preds.remove(i);
            if still_fails(&cand, &mut runs) {
                best = cand;
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Drop trailing hops (and repair anything referencing the dropped
        // variable).
        while !best.query.hops.is_empty() {
            let mut cand = best.clone();
            cand.query.hops.pop();
            let max_var = cand.query.hops.len();
            cand.query.preds.retain(|p| match p {
                crate::spec::PredSpec::IntCmp { var, .. }
                | crate::spec::PredSpec::StrEq { var, .. } => *var <= max_var,
                crate::spec::PredSpec::AttrJoin { lhs, rhs, .. } => {
                    *lhs <= max_var && *rhs <= max_var
                }
            });
            cand.query.selects.retain(|(v, _)| *v <= max_var);
            if cand.query.selects.is_empty() {
                cand.query.selects.push((0, None));
            }
            if still_fails(&cand, &mut runs) {
                best = cand;
                progressed = true;
            } else {
                break;
            }
        }

        // Halve populations.
        {
            let mut cand = best.clone();
            let mut changed = false;
            for c in &mut cand.classes {
                if c.count > 1 {
                    c.count = c.count.div_ceil(2);
                    changed = true;
                }
            }
            if changed && still_fails(&cand, &mut runs) {
                best = cand;
                progressed = true;
            }
        }

        // Fewer links per object.
        if best.links_per_object > 1 {
            let mut cand = best.clone();
            cand.links_per_object = 1;
            if still_fails(&cand, &mut runs) {
                best = cand;
                progressed = true;
            }
        }

        // Drop relationships the query no longer traverses (remapping hop
        // indices onto the retained list).
        {
            let used: Vec<usize> = {
                let mut u: Vec<usize> = best.query.hops.iter().map(|h| h.rel).collect();
                u.sort_unstable();
                u.dedup();
                u
            };
            if used.len() < best.rels.len() {
                let mut cand = best.clone();
                cand.rels = used.iter().map(|&i| best.rels[i].clone()).collect();
                for h in &mut cand.query.hops {
                    h.rel = used.iter().position(|&i| i == h.rel).unwrap();
                }
                if still_fails(&cand, &mut runs) {
                    best = cand;
                    progressed = true;
                }
            }
        }

        // Drop extra select items and distinct.
        if best.query.selects.len() > 1 {
            let mut cand = best.clone();
            cand.query.selects.truncate(1);
            if still_fails(&cand, &mut runs) {
                best = cand;
                progressed = true;
            }
        }
        if best.query.distinct {
            let mut cand = best.clone();
            cand.query.distinct = false;
            if still_fails(&cand, &mut runs) {
                best = cand;
                progressed = true;
            }
        }

        if !progressed || runs >= MAX_ORACLE_RUNS {
            break;
        }
    }
    best
}
