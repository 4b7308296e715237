//! Cross-validation between independent subsystems: the object store's
//! direct ASR materialization vs the evaluator answering the view's
//! body, and the evaluator vs a hand-rolled object-graph walker.

use semantic_sqo::datalog::eval::answer_query;
use semantic_sqo::datalog::parser::parse_query;
use semantic_sqo::datalog::Const;
use semantic_sqo::objdb::{UniversityConfig, Value};

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
        let (mut rows, _) = answer_query(&data.db.edb(), &q).unwrap();
        rows.sort();
        rows
    };
    // Engine-side: the view's body over the base relations.
    let body = parse_query(
        "Q(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W)",
    )
    .unwrap();
    let (mut engine_pairs, _) = answer_query(&data.db.edb(), &body).unwrap();
    engine_pairs.sort();
    assert_eq!(store_pairs, engine_pairs);
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
    let (mut rows, _) = answer_query(&data.db.edb(), &q).unwrap();
    rows.sort();
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
    let (rows, _) = answer_query(&data.db.edb(), &q).unwrap();
    assert_eq!(rows.len(), 12);
    for row in rows {
        let Const::Oid(oid) = row[0] else { panic!() };
        let direct = data
            .db
            .call_method(
                "taxes_withheld",
                semantic_sqo::objdb::Oid(oid),
                &[Value::Real(0.25)],
            )
            .unwrap();
        assert_eq!(row[1], direct.to_const());
    }
}
