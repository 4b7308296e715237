//! Cross-validation between independent subsystems: the object store's
//! direct ASR materialization vs the evaluator answering the view's
//! body, and the evaluator vs a hand-rolled object-graph walker.

use semantic_sqo::datalog::eval::answer_query;
use semantic_sqo::datalog::parser::parse_query;
use semantic_sqo::datalog::program::Relation;
use semantic_sqo::datalog::Const;
use semantic_sqo::objdb::{execute, UniversityConfig, Value};
use std::sync::Arc;

/// An answer relation as a sorted list.
fn sorted(answers: &Relation) -> Vec<Vec<Const>> {
    let mut rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
    rows.sort();
    rows
}

/// The store materializes ASR pairs by composing the path's links; the
/// evaluator answers the view's defining body over the base relations.
/// They must agree.
#[test]
fn asr_materialization_agrees_with_datalog_views() {
    let mut data = UniversityConfig {
        students: 60,
        courses: 8,
        persons: 0,
        faculty: 10,
        ..Default::default()
    }
    .build()
    .unwrap();
    data.db
        .define_asr(
            "asr",
            "Student",
            &["takes", "is_section_of", "has_sections", "has_ta"],
        )
        .unwrap();
    // Store-side pairs.
    let store_pairs = {
        let q = parse_query("Q(X, W) <- asr(X, W)").unwrap();
        let (rows, _) = answer_query(&data.db.edb_pinned(), &q).unwrap();
        sorted(&rows)
    };
    // Engine-side: the view's body over the base relations.
    let body = parse_query(
        "Q(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W)",
    )
    .unwrap();
    let (engine_pairs, _) = answer_query(&data.db.edb_pinned(), &body).unwrap();
    assert_eq!(store_pairs, sorted(&engine_pairs));
    assert!(!store_pairs.is_empty(), "non-trivial materialization");
}

/// The Datalog evaluator agrees with a direct object-graph walk for a
/// 2-hop query.
#[test]
fn evaluator_agrees_with_graph_walk() {
    let data = UniversityConfig {
        students: 40,
        courses: 6,
        persons: 0,
        faculty: 8,
        ..Default::default()
    }
    .build()
    .unwrap();
    // Datalog: students and the professors of sections they take.
    let q = parse_query("Q(X, F) <- student(X, N, A, Sid, Ad), takes(X, Y), is_taught_by(Y, F)")
        .unwrap();
    let (rows, _) = answer_query(&data.db.edb_pinned(), &q).unwrap();
    let rows = sorted(&rows);
    // Graph walk over the store.
    let mut expected: Vec<Vec<Const>> = Vec::new();
    for s in data.db.extent("Student") {
        for sec in data.db.linked(*s, "takes").unwrap() {
            for f in data.db.linked(sec, "is_taught_by").unwrap() {
                let pair = vec![Const::Oid(s.0), Const::Oid(f.0)];
                if !expected.contains(&pair) {
                    expected.push(pair);
                }
            }
        }
    }
    expected.sort();
    assert_eq!(rows, expected);
}

/// Method results agree between direct invocation and the materialized
/// method relation.
#[test]
fn method_relation_agrees_with_direct_calls() {
    let data = UniversityConfig {
        faculty: 12,
        students: 0,
        persons: 0,
        courses: 0,
        ..Default::default()
    }
    .build()
    .unwrap();
    data.db
        .ensure_method_facts("taxes_withheld", &[Const::Real(0.25.into())])
        .unwrap();
    let q = parse_query("Q(X, V) <- taxes_withheld(X, 0.25, V)").unwrap();
    let (rows, _) = answer_query(&data.db.edb_pinned(), &q).unwrap();
    assert_eq!(rows.len(), 12);
    for row in rows.rows() {
        let Const::Oid(oid) = row[0] else { panic!() };
        let direct = data
            .db
            .call_method(
                "taxes_withheld",
                semantic_sqo::objdb::Oid(oid),
                &[Value::Real(0.25)],
            )
            .unwrap();
        assert_eq!(row[1], semantic_sqo::objdb::value::to_const(&direct));
    }
}

/// Method facts land in the cached EDB in place: no execute path holds a
/// pin across `ensure_method_facts`, whose copy-on-write would otherwise
/// copy the whole EDB. Application 1's query, unrefuted (no IC3), runs
/// `taxes_withheld` twice on one base.
#[test]
fn a_method_query_leaves_the_cached_edb_where_it_was() {
    let data = UniversityConfig::default().build().unwrap();
    let oql = "select z.name, w.city from x in Student y in x.takes z in y.is_taught_by \
               w in z.address where z.taxes_withheld(10%) < 1000";
    let plain = semantic_sqo::SemanticOptimizer::university();
    let parsed = semantic_sqo::oql::parse_oql(oql).unwrap();
    let query = plain.translate(&parsed).unwrap().query;
    let before = Arc::as_ptr(&data.db.edb_pinned());
    for run in 0..2 {
        let (_, cost) = execute(&data.db, &query).unwrap();
        assert!(cost.method_invocations > 0, "run {run}: {cost}");
        assert_eq!(Arc::as_ptr(&data.db.edb_pinned()), before, "run {run}");
    }
}
