//! Cross-validation between independent subsystems: the object store's
//! direct ASR materialization vs the Datalog engine's view
//! materialization, and the evaluator vs a hand-rolled object-graph
//! walker.

use semantic_sqo::datalog::eval::{answer_query, materialize};
use semantic_sqo::datalog::parser::{parse_query, parse_rule};
use semantic_sqo::datalog::program::Program;
use semantic_sqo::datalog::Const;
use semantic_sqo::objdb::{UniversityConfig, Value};

/// The store materializes ASR pairs by walking links; the Datalog engine
/// materializes the same view by semi-naive evaluation. They must agree.
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
    // Engine-side: materialize the definition over the base relations.
    let program = Program::new(vec![parse_rule(
        "asr_check(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W)",
    )
    .unwrap()]);
    let (mat, _) = materialize(&data.db.edb(), &program).unwrap();
    let mut engine_pairs: Vec<Vec<Const>> = mat
        .relation(&"asr_check".into())
        .map(|r| r.rows().map(<[Const]>::to_vec).collect())
        .unwrap_or_default();
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
