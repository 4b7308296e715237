//! The flat relation store under the object base's own EDB: the
//! benchmark's 30 000-object university base (267 799 tuples).
//!
//! * every row the loader inserted is a member, and every declared hash
//!   index answers exactly what a filtered pass over `rows()` answers;
//! * the footprint is pinned where it is deterministic — allocated bytes
//!   per tuple, not RSS — with no index built and with all of them;
//! * a selection on a non-key string attribute is a probe;
//! * a write followed by a read goes through a rebuilt EDB and returns
//!   the scan-only executor's answer set.

use semantic_sqo::datalog::parser::parse_query;
use semantic_sqo::datalog::program::Relation;
use semantic_sqo::datalog::Const;
use semantic_sqo::objdb::{execute, execute_with, ExecOptions, Value};
use sqo_bench::{probe_every_index, served_university_base};
use std::collections::BTreeMap;

#[test]
fn every_row_is_a_member_and_every_hash_index_is_a_filtered_scan() {
    let data = served_university_base(20);
    let edb = data.db.edb_pinned();
    // The loader declares and builds nothing: arena and row table only.
    let (bare, tuples) = (edb.heap_bytes(), edb.total_tuples());
    assert_eq!(tuples, 267_799);
    assert!(bare / tuples <= 48, "{bare} bytes with no index built");
    let mut indexes = 0;
    for (pred, rel) in edb.iter() {
        for (row, t) in rel.rows().enumerate() {
            assert!(rel.contains(t), "{pred}: row {row} {t:?}");
        }
        for col in rel.hash_indexed_columns() {
            indexes += 1;
            let mut by_key: BTreeMap<Const, Vec<u32>> = BTreeMap::new();
            for (row, t) in rel.rows().enumerate() {
                by_key.entry(t[col]).or_default().push(row as u32);
            }
            assert_eq!(rel.distinct(col), by_key.len(), "{pred}.{col}");
            for (key, rows) in &by_key {
                assert_eq!(rel.hash_probe(col, key), Some(&rows[..]), "{pred}.{col}");
            }
            let absent = Const::Oid(u64::MAX);
            assert_eq!(rel.hash_probe(col, &absent), Some(&[][..]), "{pred}.{col}");
        }
    }
    assert!(indexes >= 40, "one per string attribute too: {indexes}");
    let hashed = edb.heap_bytes();
    assert!(hashed > bare, "an index counts once it is built");

    // With every declared index built — the ordered ones too — this
    // layout holds 79 bytes per tuple.
    assert!(probe_every_index(&edb) > indexes);
    let bytes = edb.heap_bytes();
    assert!(bytes > hashed);
    assert!(
        bytes / tuples <= 96,
        "{bytes} bytes for {tuples} tuples: {} per tuple",
        bytes / tuples
    );
    probe_every_index(&edb);
    assert_eq!(edb.heap_bytes(), bytes, "a second probe builds nothing");
}

/// `student.name` is no key, and the A4 and A3 templates select on it:
/// one probe of its hash index, where the scan-only executor looks at all
/// 8 400 students.
#[test]
fn a_selection_on_a_string_attribute_is_a_probe() {
    let data = served_university_base(20);
    let q = parse_query("Q(X, Sid) <- student(X, \"student7\", A, Sid, Ad)").unwrap();
    let (rows, cost) = execute(&data.db, &q).unwrap();
    assert!(cost.index_probes >= 1 && cost.scans == 0, "{cost}");
    assert_eq!(cost.tuples_examined, rows.len() as u64, "{cost}");
    let (oracle, scanned) = execute_with(&data.db, &q, ExecOptions::scan_only()).unwrap();
    assert!(rows.rows().eq(oracle.rows()));
    assert_eq!(rows.len(), 1);
    assert!(
        scanned.scans >= 1 && scanned.tuples_examined >= 8_400,
        "{scanned}"
    );
}

#[test]
fn a_read_after_a_create_sees_it_like_the_scan_only_executor() {
    let mut data = served_university_base(1);
    let q = parse_query("Q(X, N) <- person(X, N, A, Ad), A >= 16, A < 18").unwrap();
    let sorted = |answers: Relation| {
        let mut rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
        rows.sort();
        rows
    };
    let before = sorted(execute(&data.db, &q).unwrap().0);
    let new = data
        .db
        .create(
            "Person",
            vec![("name", "newcomer".into()), ("age", Value::Int(17))],
        )
        .unwrap();
    let after = sorted(execute(&data.db, &q).unwrap().0);
    let oracle = sorted(
        execute_with(&data.db, &q, ExecOptions::scan_only())
            .unwrap()
            .0,
    );
    assert_eq!(after, oracle);
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.contains(&vec![Const::Oid(new.0), Const::Str("newcomer".into())]));

    // By name: a probe of the rebuilt EDB's `person.name` index, which
    // that read is the first to ask for.
    let by_name = parse_query("Q(X, A) <- person(X, \"newcomer\", A, Ad)").unwrap();
    let (found, cost) = execute(&data.db, &by_name).unwrap();
    assert!(found.rows().eq([[Const::Oid(new.0), Const::Int(17)]]));
    assert!(cost.index_probes >= 1 && cost.scans == 0, "{cost}");
}
