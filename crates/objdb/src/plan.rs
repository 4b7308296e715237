//! A simple cardinality-based cost estimator: the "conventional
//! cost-based optimizer" of the paper's pipeline, which receives the
//! semantically equivalent queries produced by SQO and picks the one
//! whose (estimated) evaluation plan is cheapest.
//!
//! The estimator prices the executor's own steps: the body is ordered by
//! [`execution_order`] — the function the evaluator runs — so a ground
//! equality binds its variable before the atom that carries it, and each
//! positive atom is priced against the access path
//! [`choose_access_path`] picks for the estimated number of input
//! bindings: a declared hash index on a bound column examines only the
//! expected matches, an ordered index with a harvested range bound
//! examines the true in-range count (probed from the index itself), an
//! unindexed bound column is a filtered scan per binding or, past the
//! evaluator's break-even, a one-time ephemeral build pass.
//!
//! The rest is deliberately textbook: a join selectivity of `1/distinct`
//! of the atom's most selective bound column, fixed factors for
//! comparisons, and per-relation-kind access weights reflecting the
//! object-level cost of each probe (object fetch ≫ extent probe).
//! Distinct counts are column statistics of the relations themselves
//! ([`Relation::distinct`]): read off the column's hash index where one
//! is declared, else counted in one pass and kept until the relation
//! changes, so a column is counted once per EDB build.
//! Pricing is a first use like any other: it builds the indexes
//! `choose_access_path` consults — the hash index of a bound column, the
//! ordered index of a range-constrained one — for every candidate priced,
//! not only the one chosen. The distinct count builds nothing more.

use crate::exec::physical;
use crate::store::ObjectDb;
use sqo_datalog::eval::{
    choose_access_path, collect_ranges, execution_order, AccessPath, EvalOptions, RangeMap,
};
use sqo_datalog::program::Relation;
use sqo_datalog::{CmpOp, Literal, PredSym, Query, Term, Var};
use sqo_translate::RelKind;
use std::borrow::Borrow;

/// Access weight per probe, by relation kind.
fn weight(db: &ObjectDb, pred: &PredSym) -> f64 {
    match db.catalog().relation_by_pred(pred).map(|d| &d.kind) {
        Some(RelKind::Class { .. }) | Some(RelKind::Struct { .. }) => 5.0,
        Some(RelKind::Relationship { .. }) => 2.0,
        Some(RelKind::View { .. }) => 2.0,
        Some(RelKind::Method { .. }) => 8.0,
        None if pred.name().ends_with("__extent") => 1.0,
        None => 2.0,
    }
}

/// Selectivity of a range probe on one indexed column: the true in-range
/// fraction, probed from the ordered index, clamped away from 0 and 1 so
/// an estimate never claims a probe is free or useless.
fn range_selectivity(rel: &Relation, pos: usize, v: &Var, ranges: &RangeMap) -> f64 {
    let in_range = ranges
        .get(v)
        .and_then(|(lo, hi)| rel.range_count(pos, lo.as_ref(), hi.as_ref()));
    match in_range {
        Some(k) if !rel.is_empty() => (k as f64 / rel.len() as f64).clamp(0.01, 0.95),
        _ => 1.0,
    }
}

/// Estimate the evaluation cost of a query against the store. Lower is
/// cheaper. The query is first rewritten to the same physical shape the
/// executor uses (extent atoms for attribute-free class atoms).
pub fn estimate_cost(db: &ObjectDb, q: &Query) -> f64 {
    price_steps(db, q, |_, _| {})
}

/// The literals [`estimate_cost`] prices, in the order it prices them,
/// each positive atom with the access path it was priced for — for
/// explaining a plan choice and for checking the estimator against the
/// evaluator. Stops where the estimate does: before the first negation
/// or comparison that nothing can bind.
pub fn priced_steps(db: &ObjectDb, q: &Query) -> Vec<(Literal, Option<AccessPath>)> {
    let mut steps = Vec::new();
    price_steps(db, q, |l, path| steps.push((l.clone(), path)));
    steps
}

/// Walk the query's execution order, accumulating cost and the running
/// cardinality estimate; `on_step` sees every literal as it is priced.
fn price_steps(
    db: &ObjectDb,
    q: &Query,
    mut on_step: impl FnMut(&Literal, Option<AccessPath>),
) -> f64 {
    let q = physical(db, q, EvalOptions::default());
    let ranges = collect_ranges(&q.body);
    let edb = db.edb_pinned();
    let is_bound = |bound: &[Var], t: &Term| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(v),
    };
    let mut bound: Vec<Var> = Vec::new();
    let mut bound_cols: Vec<usize> = Vec::new();
    let mut card = 1.0f64;
    let mut cost = 0.0f64;
    for step in execution_order(&q.body) {
        if !step.binds {
            // Only unbound negatives/cmps remain; charge a flat penalty.
            cost += card;
            break;
        }
        let mut path = None;
        match step.literal {
            Literal::Cmp(c) => {
                let both_bound = is_bound(&bound, &c.lhs) && is_bound(&bound, &c.rhs);
                card *= match c.op {
                    // One bound side: the equality binds the other.
                    CmpOp::Eq if !both_bound => 1.0,
                    CmpOp::Eq => 0.1,
                    CmpOp::Ne => 0.9,
                    _ => 0.33,
                };
            }
            Literal::Neg(a) => {
                cost += card * weight(db, &a.pred);
                card *= 0.5;
            }
            Literal::Pos(a) => {
                let rel = edb.relation(&a.pred);
                let n = rel.map_or(0.0, |r| r.len() as f64);
                let w = weight(db, &a.pred);
                bound_cols.clear();
                bound_cols.extend((0..a.args.len()).filter(|&c| is_bound(&bound, &a.args[c])));
                // The join selectivity is that of the most selective bound
                // column — the one the executor probes. Further bound
                // columns are mostly determined by it (an OID fixes every
                // attribute; an inverse relationship repeats its forward
                // edge, which is what Step 3's redundant atoms are), so
                // multiplying their factors in would drive the estimate
                // towards zero and make the longest body look cheapest.
                let distinct = bound_cols
                    .iter()
                    .map(|&col| rel.map_or(1, |r| r.distinct(col)).max(1) as f64)
                    .fold(1.0, f64::max);
                let mut sel = 1.0 / distinct;
                // Repeated variables within the atom also filter.
                for (i, t) in a.args.iter().enumerate() {
                    if matches!(t, Term::Var(_)) && a.args[..i].contains(t) {
                        sel *= 0.1;
                    }
                }
                let n_in = card.max(1.0);
                path = rel.map(|rel| {
                    let opts = EvalOptions::default();
                    choose_access_path(rel, a, &bound_cols, &ranges, n_in.ceil() as usize, &opts)
                });
                let matches = (n * sel).max(1.0);
                let examined = match (path, rel) {
                    (Some(AccessPath::HashProbe(_)), _) => matches,
                    (Some(AccessPath::RangeProbe(col)), Some(rel)) => {
                        let Term::Var(v) = &a.args[col] else {
                            unreachable!("range probes are chosen on variable columns")
                        };
                        (n * range_selectivity(rel, col, v, &ranges)).max(1.0)
                    }
                    (Some(AccessPath::Build), _) => {
                        cost += n * w; // ephemeral index build: one full pass
                        matches
                    }
                    _ => n.max(1.0),
                };
                cost += n_in * examined * w;
                card = (card * n * sel).max(0.0);
            }
        }
        on_step(step.literal, path);
        for v in step.literal.iter_vars() {
            if !bound.contains(v) {
                bound.push(*v);
            }
        }
    }
    // Result materialization: a more selective query produces fewer
    // output tuples.
    cost + card
}

/// Choose the cheapest query among semantically equivalent candidates.
/// Returns the winning index and all estimates.
///
/// Exact cost ties are broken deterministically: prefer the candidate
/// with fewer body literals, then the lower index — so the winner does
/// not depend on the enumeration order of the equivalent set.
pub fn choose_best<Q: Borrow<Query>>(db: &ObjectDb, queries: &[Q]) -> (usize, Vec<f64>) {
    let costs: Vec<f64> = queries
        .iter()
        .map(|q| estimate_cost(db, q.borrow()))
        .collect();
    let mut best = 0;
    for (i, c) in costs.iter().enumerate() {
        if *c < costs[best]
            || (*c == costs[best]
                && queries[i].borrow().body.len() < queries[best].borrow().body.len())
        {
            best = i;
        }
    }
    (best, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use sqo_datalog::parser::parse_query;
    use sqo_odl::fixtures::university_schema;

    fn db_with_path() -> ObjectDb {
        let mut d = ObjectDb::new(university_schema());
        let mut sections = Vec::new();
        for i in 0..20 {
            let c = d
                .create("Course", vec![("number", format!("c{i}").into())])
                .unwrap();
            for j in 0..3 {
                let s = d
                    .create("Section", vec![("number", format!("c{i}s{j}").into())])
                    .unwrap();
                d.link(s, "is_section_of", c).unwrap();
                sections.push(s);
            }
        }
        for i in 0..40 {
            let st = d
                .create("Student", vec![("name", format!("st{i}").into())])
                .unwrap();
            d.link(st, "takes", sections[i % sections.len()]).unwrap();
            d.link(st, "takes", sections[(i * 7 + 1) % sections.len()])
                .unwrap();
        }
        for (i, s) in sections.iter().enumerate() {
            let ta = d
                .create(
                    "TA",
                    vec![
                        ("name", format!("ta{i}").into()),
                        ("employee_id", format!("e{i}").into()),
                    ],
                )
                .unwrap();
            d.link(*s, "has_ta", ta).unwrap();
        }
        d
    }

    #[test]
    fn asr_variant_estimates_cheaper_than_chain() {
        let mut d = db_with_path();
        d.define_asr(
            "asr",
            "Student",
            &["takes", "is_section_of", "has_sections", "has_ta"],
        )
        .unwrap();
        let chain = parse_query(
            "Q(W) <- student(X, N, A, Sid, Ad), takes(X, Y), is_section_of(Y, Z), \
             has_sections(Z, V), has_ta(V, W), N = \"st1\"",
        )
        .unwrap();
        let folded =
            parse_query("Q(W) <- student(X, N, A, Sid, Ad), asr(X, W), N = \"st1\"").unwrap();
        let (best, costs) = choose_best(&d, &[chain, folded]);
        assert_eq!(best, 1, "costs: {costs:?}");
    }

    #[test]
    fn extent_shape_estimates_cheaper_than_fetch() {
        let d = db_with_path();
        // OID-only person atom (rewritten to an extent probe) vs
        // attribute-reading one.
        let cheap = parse_query("Q(X) <- student(X, N, A, Sid, Ad)").unwrap();
        let costly = parse_query("Q(N) <- student(X, N, A, Sid, Ad)").unwrap();
        assert!(estimate_cost(&d, &cheap) < estimate_cost(&d, &costly));
    }

    #[test]
    fn restriction_lowers_estimate() {
        let mut d = db_with_path();
        d.create("Person", vec![("age", Value::Int(20))]).unwrap();
        let broad = parse_query("Q(N) <- person(X, N, A, Ad)").unwrap();
        let narrow = parse_query("Q(N) <- person(X, N, A, Ad), A < 30").unwrap();
        assert!(estimate_cost(&d, &narrow) < estimate_cost(&d, &broad));
    }

    #[test]
    fn choose_best_returns_all_costs() {
        let d = db_with_path();
        let q1 = parse_query("Q(X) <- student(X, N, A, Sid, Ad)").unwrap();
        let q2 = parse_query("Q(X) <- ta(X, N, A, Sid, Eid, Ad)").unwrap();
        let (best, costs) = choose_best(&d, &[q1, q2]);
        assert_eq!(costs.len(), 2);
        assert!(best < 2);
    }

    #[test]
    fn estimate_cost_repeats_across_instances_and_calls() {
        // The store construction is deterministic, so a second instance
        // carries identical statistics.
        let (db, other) = (db_with_path(), db_with_path());
        let q = parse_query("Q(N) <- student(X, N, A, Sid, Ad), A < 30").unwrap();
        assert_eq!(estimate_cost(&other, &q), estimate_cost(&db, &q));
        // Second call, column statistics now cached: same answer.
        assert_eq!(estimate_cost(&other, &q), estimate_cost(&db, &q));
    }

    #[test]
    fn pricing_a_bound_numeric_column_builds_no_index() {
        let d = db_with_path();
        let bare = d.edb_pinned().heap_bytes();
        // `age` is bound on entry: its ordered index answers no equality
        // probe, so its distinct count is a pass over the column.
        let by_age = parse_query("Q(X) <- A = 30, student(X, N, A, Sid, Ad)").unwrap();
        estimate_cost(&d, &by_age);
        assert_eq!(d.edb_pinned().heap_bytes(), bare);
        // A bound hashed column is probed to be priced, and so built.
        let by_name = parse_query("Q(X) <- student(X, \"st1\", A, Sid, Ad)").unwrap();
        estimate_cost(&d, &by_name);
        assert!(d.edb_pinned().heap_bytes() > bare);
    }

    #[test]
    fn choose_best_breaks_exact_ties_by_body_length() {
        let d = ObjectDb::new(university_schema());
        // Both probe one unknown relation (cost 2.0 exactly); the ground
        // comparison is free, so the costs tie to the bit. The shorter
        // candidate must win even though it is enumerated second.
        let longer = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("u1", vec![Term::var("X")]),
                Literal::cmp(Term::int(1), CmpOp::Lt, Term::int(2)),
            ],
        );
        let shorter = Query::new("q", vec![], vec![Literal::pos("u2", vec![Term::var("X")])]);
        let (best, costs) = choose_best(&d, &[longer.clone(), shorter.clone()]);
        assert_eq!(costs[0], costs[1], "test premise: an exact cost tie");
        assert_eq!(best, 1, "shorter body wins the tie");
        // Among equal-length, equal-cost candidates the lower index wins,
        // so the choice is stable under permutation of the rest.
        let (best, _) = choose_best(&d, &[shorter.clone(), shorter]);
        assert_eq!(best, 0);
    }
}
