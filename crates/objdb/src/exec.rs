//! Query execution with an object-level cost model.
//!
//! The paper's optimizations pay off in *object accesses*, not only in
//! generic join work, so the executor distinguishes:
//!
//! * **object fetches** — probes of full class/structure relations
//!   (reading attributes requires fetching the object);
//! * **extent probes** — membership tests against a class extent. A
//!   class atom none of whose attribute variables is used elsewhere is
//!   rewritten to a unary `{pred}__extent` atom before evaluation; this
//!   is exactly the plan the paper sketches for Application 2 ("use the
//!   class extents … and then retrieve only those object instances") and
//!   Application 3 (compare OIDs without retrieving Faculty objects);
//! * **relationship traversals**, **view (ASR) probes** and **method
//!   invocations**.

use crate::error::{ObjDbError, Result};
use crate::store::ObjectDb;
use sqo_datalog::eval::{answer_query_with, collect_ranges, EvalOptions};
use sqo_datalog::fxhash::FxHashMap;
use sqo_datalog::{Atom, Const, Literal, PredSym, Query, Term, Var};
use sqo_translate::RelKind;
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The cost of one query evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostReport {
    /// Number of answer tuples.
    pub answers: usize,
    /// Probes of full class/structure relations.
    pub object_fetches: u64,
    /// Probes of unary extent relations (positive or anti-join).
    pub extent_probes: u64,
    /// Probes of relationship relations.
    pub rel_traversals: u64,
    /// Probes of access-support-relation (view) relations.
    pub view_probes: u64,
    /// Probes of method relations (the physical analogue of invoking the
    /// method on a candidate object).
    pub method_invocations: u64,
    /// Total tuples examined (all relation kinds).
    pub tuples_examined: u64,
    /// Intermediate join bindings produced.
    pub bindings_produced: u64,
    /// Anti-join probes.
    pub negation_probes: u64,
    /// Equality probes against declared hash indexes.
    pub index_probes: u64,
    /// Range probes against declared ordered indexes.
    pub range_probes: u64,
    /// Full relation passes (explicit scans plus ephemeral index builds).
    pub scans: u64,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
    /// Tuples examined per relation (predicate name → count), for
    /// per-class breakdowns in experiment reports.
    pub per_pred: HashMap<String, u64>,
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "answers={} fetches={} extent={} rel={} view={} method={} tuples={} time={:?}",
            self.answers,
            self.object_fetches,
            self.extent_probes,
            self.rel_traversals,
            self.view_probes,
            self.method_invocations,
            self.tuples_examined,
            self.elapsed
        )
    }
}

/// Rewrite class/structure atoms whose attributes are never used into
/// unary extent atoms (cheap membership tests). Public so the planner can
/// estimate against the same physical shape. Assumes the default
/// (indexed) executor, under which the extent-first anti-join
/// decomposition is suppressed when an ordered-index range probe will
/// actually be taken.
pub fn rewrite_for_extents(db: &ObjectDb, q: &Query) -> Query {
    physical(db, q, EvalOptions::default()).into_owned()
}

/// The query in the shape the executor runs, borrowed when the rewrite
/// leaves it as it is — plan choice prices every equivalent on each
/// request, and most of them have nothing to rewrite.
pub(crate) fn physical<'q>(db: &ObjectDb, q: &'q Query, opts: EvalOptions) -> Cow<'q, Query> {
    match physical_body(db, q, opts) {
        Some(body) => Cow::Owned(Query::new(q.name.clone(), q.projection.clone(), body)),
        None => Cow::Borrowed(q),
    }
}

/// The rewritten body, or `None` when no literal changes and no extent
/// scan is prepended.
fn physical_body(db: &ObjectDb, q: &Query, opts: EvalOptions) -> Option<Vec<Literal>> {
    // Count variable occurrences across the whole query.
    let mut occurrences: FxHashMap<Var, usize> = FxHashMap::default();
    occurrences.reserve(4 * q.body.len());
    let projected = q.projection.iter().filter_map(Term::as_var);
    let in_atoms = q.body.iter().filter_map(Literal::atom).flat_map(Atom::vars);
    let in_cmps = q.body.iter().filter_map(|l| match l {
        Literal::Cmp(c) => Some(c.vars()),
        _ => None,
    });
    for v in projected.chain(in_atoms).chain(in_cmps.flatten()) {
        *occurrences.entry(*v).or_insert(0) += 1;
    }
    let is_object_rel = |pred: &PredSym| {
        matches!(
            db.catalog().relation_by_pred(pred).map(|d| &d.kind),
            Some(RelKind::Class { .. }) | Some(RelKind::Struct { .. })
        )
    };
    let rewrite_atom = |a: &Atom| -> Option<Atom> {
        if !is_object_rel(&a.pred) || a.args.is_empty() {
            return None;
        }
        // An attribute position is "used" if its variable occurs anywhere
        // else in the query (more often than inside this atom alone) or
        // is a constant.
        let mut local: FxHashMap<&Var, usize> = FxHashMap::default();
        for t in &a.args[1..] {
            if let Term::Var(v) = t {
                *local.entry(v).or_insert(0) += 1;
            }
        }
        let attr_used = a.args[1..].iter().any(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => occurrences.get(v).copied().unwrap_or(0) > local[v],
        });
        if attr_used {
            None
        } else {
            Some(Atom::new(
                format!("{}__extent", a.pred.name()),
                vec![a.args[0]],
            ))
        }
    };
    // A negated class atom reduces to an extent anti-join when every
    // attribute position either is negation-local or repeats, by attribute
    // name, the value some positive class/structure atom with the same OID
    // already pins (OID functionality + hierarchy consistency make the
    // attribute comparison vacuous) — the faculty case of Application 2.
    let rewrite_neg = |a: &Atom| -> Option<Atom> {
        let decl = db.catalog().relation_by_pred(&a.pred)?;
        if !matches!(decl.kind, RelKind::Class { .. } | RelKind::Struct { .. }) {
            return None;
        }
        let mut local: FxHashMap<&Var, usize> = FxHashMap::default();
        for v in a.vars() {
            *local.entry(v).or_insert(0) += 1;
        }
        let oid = a.args.first()?;
        let consistent = a.args[1..].iter().enumerate().all(|(i, t)| {
            let attr = &decl.args[i + 1].name;
            match t {
                Term::Const(_) => false,
                Term::Var(v) => {
                    // Negation-local?
                    if occurrences.get(v).copied().unwrap_or(0) <= local[v] {
                        return true;
                    }
                    // Pinned by a positive object atom with the same OID?
                    q.body.iter().any(|l| match l {
                        Literal::Pos(b) => {
                            let Some(bd) = db.catalog().relation_by_pred(&b.pred) else {
                                return false;
                            };
                            if !matches!(bd.kind, RelKind::Class { .. } | RelKind::Struct { .. }) {
                                return false;
                            }
                            b.args.first() == Some(oid)
                                && bd
                                    .arg_position(attr)
                                    .is_some_and(|j| b.args.get(j) == Some(t))
                        }
                        _ => false,
                    })
                }
            }
        });
        if consistent {
            Some(Atom::new(format!("{}__extent", a.pred.name()), vec![*oid]))
        } else {
            None
        }
    };
    let rewritten: Vec<Option<Literal>> = q
        .body
        .iter()
        .map(|l| match l {
            Literal::Pos(a) => rewrite_atom(a).map(Literal::Pos),
            Literal::Neg(a) => rewrite_atom(a).or_else(|| rewrite_neg(a)).map(Literal::Neg),
            Literal::Cmp(_) => None,
        })
        .collect();
    // The body as it will run, borrowed where a literal is unchanged.
    let body: Vec<&Literal> = rewritten
        .iter()
        .zip(&q.body)
        .map(|(new, old)| new.as_ref().unwrap_or(old))
        .collect();
    // The paper's Application 2 plan: "first identify those objects that
    // are in class Person but not in class Faculty, and then retrieve
    // only those object instances". When an anti-join restricts the OID
    // of a full class atom, prepend the cheap extent scan so the
    // anti-join runs *before* the object fetches.
    let anti_joined: Vec<Term> = body
        .iter()
        .filter_map(|l| match l {
            Literal::Neg(a) => a.args.first().cloned(),
            _ => None,
        })
        .collect();
    // Dedup by (extent predicate, OID term): several negated atoms
    // restricting the same OID — or several positive atoms sharing one —
    // must not prepend the same extent scan twice. Skip the prefix
    // entirely when the class atom can be range-probed through an
    // ordered index (a harvested bound on an indexed attribute): the
    // extent-first decomposition would force a full extent scan where
    // the index already restricts the fetches.
    // Comparisons are never rewritten, so the original body's ranges are
    // the physical body's.
    let ranges = collect_ranges(&q.body);
    let can_range_probe = |a: &Atom| {
        if opts.scan_only {
            return false;
        }
        let edb = db.edb();
        let Some(rel) = edb.relation(&a.pred) else {
            return false;
        };
        a.args.iter().enumerate().any(|(pos, t)| {
            let Term::Var(v) = t else { return false };
            rel.has_ordered_index(pos)
                && ranges
                    .get(v)
                    .is_some_and(|(lo, hi)| lo.is_some() || hi.is_some())
        })
    };
    let mut prefix: Vec<Literal> = Vec::new();
    let mut seen: Vec<(PredSym, Term)> = Vec::new();
    for l in &body {
        let Literal::Pos(a) = l else { continue };
        if !is_object_rel(&a.pred) || a.args.len() <= 1 || can_range_probe(a) {
            continue;
        }
        if a.args.first().is_some_and(|oid| anti_joined.contains(oid)) {
            let extent = PredSym::new(format!("{}__extent", a.pred.name()));
            let key = (extent, a.args[0]);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            prefix.push(Literal::Pos(Atom {
                pred: extent,
                args: vec![a.args[0]],
            }));
        }
    }
    if prefix.is_empty() && rewritten.iter().all(Option::is_none) {
        return None;
    }
    let literals = rewritten.into_iter().zip(&q.body);
    prefix.extend(literals.map(|(new, old)| new.unwrap_or_else(|| old.clone())));
    Some(prefix)
}

/// Execute a Datalog query against the object store, with cost
/// accounting, using the full access-path repertoire.
pub fn execute(db: &ObjectDb, q: &Query) -> Result<(Vec<Vec<Const>>, CostReport)> {
    execute_with(db, q, EvalOptions::default())
}

/// Execute with explicit physical options (see [`EvalOptions`]; the
/// differential tests and the `*_seed`/`*_baseline` bench rows use
/// [`EvalOptions::scan_only`] as the reference).
pub fn execute_with(
    db: &ObjectDb,
    q: &Query,
    opts: EvalOptions,
) -> Result<(Vec<Vec<Const>>, CostReport)> {
    let _span = sqo_obs::span!("objdb.execute");
    sqo_obs::bump(sqo_obs::Counter::ExecQueries);
    let physical = physical(db, q, opts);

    // Materialize method facts for every method atom's constant args.
    for l in &physical.body {
        let Literal::Pos(a) = l else { continue };
        let Some(decl) = db.catalog().relation_by_pred(&a.pred) else {
            continue;
        };
        if !matches!(decl.kind, RelKind::Method { .. }) {
            continue;
        }
        if a.args.len() < 2 {
            return Err(ObjDbError::Unsupported {
                feature: format!("method atom `{a}` needs a receiver and a result position"),
            });
        }
        let arg_consts: Option<Vec<Const>> = a.args[1..a.args.len() - 1]
            .iter()
            .map(|t| t.as_const().cloned())
            .collect();
        let Some(arg_consts) = arg_consts else {
            return Err(ObjDbError::Unsupported {
                feature: format!("method atom `{a}` with non-constant arguments"),
            });
        };
        db.ensure_method_facts(a.pred.name(), &arg_consts)?;
    }

    let start = Instant::now();
    let (rows, stats) = {
        let edb = db.edb();
        answer_query_with(&edb, &physical, &opts)?
    };
    let elapsed = start.elapsed();

    // Join cardinalities flow into the global observability snapshot so
    // experiment reports read them from one place rather than re-deriving
    // them from per-predicate conversions at the report edge.
    sqo_obs::add(
        sqo_obs::Counter::EvalJoinInputTuples,
        stats.join_input_tuples,
    );
    sqo_obs::add(
        sqo_obs::Counter::EvalJoinOutputTuples,
        stats.join_output_tuples,
    );
    sqo_obs::add(sqo_obs::Counter::ExecIndexProbes, stats.index_probes);
    sqo_obs::add(sqo_obs::Counter::ExecRangeProbes, stats.range_probes);
    sqo_obs::add(sqo_obs::Counter::ExecScans, stats.scans);

    let mut report = CostReport {
        answers: rows.len(),
        tuples_examined: stats.tuples_examined,
        bindings_produced: stats.bindings_produced,
        negation_probes: stats.negation_probes,
        index_probes: stats.index_probes,
        range_probes: stats.range_probes,
        scans: stats.scans,
        elapsed,
        ..Default::default()
    };
    report.per_pred = stats
        .per_pred
        .iter()
        .map(|(k, v)| (k.name().to_string(), *v))
        .collect();
    for (pred, count) in &stats.per_pred {
        if pred.name().ends_with("__extent") {
            report.extent_probes += count;
            continue;
        }
        match db.catalog().relation_by_pred(pred).map(|d| &d.kind) {
            Some(RelKind::Class { .. }) | Some(RelKind::Struct { .. }) => {
                report.object_fetches += count
            }
            Some(RelKind::Relationship { .. }) => report.rel_traversals += count,
            Some(RelKind::View { .. }) => report.view_probes += count,
            Some(RelKind::Method { .. }) => report.method_invocations += count,
            None => {}
        }
    }
    Ok((rows, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use sqo_datalog::parser::parse_query;
    use sqo_odl::fixtures::university_schema;

    fn sample_db() -> ObjectDb {
        let mut d = ObjectDb::new(university_schema());
        for i in 0..10 {
            d.create(
                "Person",
                vec![
                    ("name", format!("p{i}").into()),
                    ("age", Value::Int(20 + i)),
                ],
            )
            .unwrap();
        }
        for i in 0..5 {
            d.create(
                "Faculty",
                vec![
                    ("name", format!("f{i}").into()),
                    ("age", Value::Int(40 + i)),
                    ("salary", Value::Real(50000.0)),
                ],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn extent_rewrite_applies_when_attrs_unused() {
        let d = sample_db();
        let q = parse_query("Q(X) <- person(X, N, A, Ad)").unwrap();
        let r = rewrite_for_extents(&d, &q);
        assert_eq!(r.to_string(), "q(X) <- person__extent(X)");
        // With an attribute used, the full relation stays.
        let q2 = parse_query("Q(N) <- person(X, N, A, Ad)").unwrap();
        let r2 = rewrite_for_extents(&d, &q2);
        assert_eq!(r2.to_string(), "q(N) <- person(X, N, A, Ad)");
    }

    #[test]
    fn extent_rewrite_handles_negation() {
        let d = sample_db();
        let q =
            parse_query("Q(N) <- person(X, N, A, Ad), A < 30, not faculty(X, N2, A2, S, R, Ad2)")
                .unwrap();
        let r = rewrite_for_extents(&d, &q);
        assert!(r.to_string().contains("not faculty__extent(X)"), "{r}");
        // `A < 30` range-probes the ordered index on age, so the
        // extent-first decomposition is NOT applied — it would force a
        // full extent scan where the index already restricts fetches.
        assert!(
            !r.to_string().starts_with("q(N) <- person__extent(X)"),
            "{r}"
        );
        // Without a range-probe opportunity the anti-joined class atom
        // gets the extent-first decomposition (the paper's Application 2
        // plan).
        let q_no_range =
            parse_query("Q(N) <- person(X, N, A, Ad), not faculty(X, N2, A2, S, R, Ad2)").unwrap();
        let r_no_range = rewrite_for_extents(&d, &q_no_range);
        assert!(
            r_no_range
                .to_string()
                .starts_with("q(N) <- person__extent(X)"),
            "{r_no_range}"
        );
        // A negated atom whose attribute position is pinned by the SAME
        // object's positive atom is still an extent test (consistent
        // storage makes the comparison vacuous).
        let q2 =
            parse_query("Q(N) <- person(X, N, A, Ad), A < 30, not faculty(X, N, A2, S, R, Ad2)")
                .unwrap();
        let r2 = rewrite_for_extents(&d, &q2);
        assert!(r2.to_string().contains("not faculty__extent(X)"), "{r2}");
        // But a constant or a variable pinned by a *different* object
        // keeps the full anti-join (it genuinely filters on attributes).
        let q3 = parse_query("Q(N) <- person(X, N, A, Ad), not faculty(X, \"bob\", A2, S, R, Ad2)")
            .unwrap();
        let r3 = rewrite_for_extents(&d, &q3);
        assert!(r3.to_string().contains("not faculty(X, \"bob\","), "{r3}");
        let q4 = parse_query(
            "Q(N) <- person(X, N, A, Ad), person(Y, N2, A4, Ad4), \
             not faculty(X, N2, A2, S, R, Ad2)",
        )
        .unwrap();
        let r4 = rewrite_for_extents(&d, &q4);
        assert!(r4.to_string().contains("not faculty(X, N2,"), "{r4}");
    }

    #[test]
    fn execute_counts_fetches_vs_extent_probes() {
        let d = sample_db();
        // Attribute-reading query: person fetches.
        let q = parse_query("Q(N) <- person(X, N, A, Ad), A < 25").unwrap();
        let (rows, report) = execute(&d, &q).unwrap();
        assert_eq!(rows.len(), 5); // ages 20..24
                                   // The ordered index on `age` pre-filters: only the matching
                                   // tuples are fetched, and the range probe is counted.
        assert!(report.object_fetches >= 5);
        assert!(report.range_probes >= 1);
        assert_eq!(report.extent_probes, 0);
        // The pre-index executor scans all persons incl faculty.
        let (rows_s, report_s) = execute_with(&d, &q, EvalOptions::scan_only()).unwrap();
        assert_eq!(rows_s, rows);
        assert!(report_s.object_fetches >= 15);
        assert_eq!(report_s.range_probes, 0);
        // OID-only query: extent probes, no fetches.
        let q2 = parse_query("Q(X) <- person(X, N, A, Ad)").unwrap();
        let (rows2, report2) = execute(&d, &q2).unwrap();
        assert_eq!(rows2.len(), 15);
        assert_eq!(report2.object_fetches, 0);
        assert!(report2.extent_probes >= 15);
    }

    #[test]
    fn scope_reduction_reduces_fetches() {
        let d = sample_db();
        // Original: read every person's age.
        let q = parse_query("Q(N) <- person(X, N, A, Ad), A < 45").unwrap();
        let (rows, r1) = execute(&d, &q).unwrap();
        // Scope-reduced: also anti-join the faculty extent.
        let q2 =
            parse_query("Q(N) <- person(X, N, A, Ad), A < 45, not faculty(X, N2, A2, S, R, Ad2)")
                .unwrap();
        let (rows2, r2) = execute(&d, &q2).unwrap();
        // Faculty ages are 40..44, all < 45 — but they are excluded by
        // the anti-join, so answers differ accordingly.
        assert_eq!(rows.len(), 15);
        assert_eq!(rows2.len(), 10);
        assert!(r2.extent_probes > 0);
        assert_eq!(r1.extent_probes, 0);
    }

    #[test]
    fn method_materialization_and_cost() {
        let mut d = sample_db();
        d.register_method(
            "Employee",
            "taxes_withheld",
            Box::new(|db, oid, args| {
                let salary = db
                    .attr(oid, "salary")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                let rate = args.first().and_then(Value::as_f64).unwrap_or(0.0);
                Ok(Value::Real(salary * rate))
            }),
        )
        .unwrap();
        let q =
            parse_query("Q(X) <- faculty__extent(X), taxes_withheld(X, 0.1, V), V > 1000").unwrap();
        let (rows, report) = execute(&d, &q).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(report.method_invocations >= 5);
    }

    #[test]
    fn non_constant_method_args_rejected() {
        let d = sample_db();
        let q =
            parse_query("Q(X) <- faculty(X, N, A, S, R, Ad), taxes_withheld(X, S, V), V > 1000")
                .unwrap();
        assert!(matches!(
            execute(&d, &q),
            Err(ObjDbError::Unsupported { .. })
        ));
    }
}
