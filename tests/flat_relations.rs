//! The flat relation store under the object base's own EDB: the
//! benchmark's 30 000-object university base (267 799 tuples).
//!
//! * every row the loader inserted is a member, and every declared hash
//!   index answers exactly what a filtered pass over `rows()` answers;
//! * the footprint is pinned where it is deterministic — allocated bytes
//!   per tuple, not RSS;
//! * a write followed by a read goes through a rebuilt EDB and returns
//!   the scan-only executor's answer set.

use semantic_sqo::datalog::parser::parse_query;
use semantic_sqo::datalog::Const;
use semantic_sqo::objdb::{execute, execute_with, ExecOptions, Value};
use sqo_bench::served_university_base;
use std::collections::BTreeMap;

#[test]
fn every_row_is_a_member_and_every_hash_index_is_a_filtered_scan() {
    let data = served_university_base(20);
    let edb = data.db.edb();
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
            assert_eq!(rel.index_distinct(col), Some(by_key.len()), "{pred}.{col}");
            for (key, rows) in &by_key {
                assert_eq!(rel.hash_probe(col, key), Some(&rows[..]), "{pred}.{col}");
            }
            let absent = Const::Oid(u64::MAX);
            assert_eq!(rel.hash_probe(col, &absent), Some(&[][..]), "{pred}.{col}");
        }
    }
    assert!(indexes >= 20, "the loader declares its indexes: {indexes}");

    // This layout holds 92 bytes per tuple; the doubled one it replaced
    // held 214 (counted by a wrapping allocator).
    let (bytes, tuples) = (edb.heap_bytes(), edb.total_tuples());
    assert_eq!(tuples, 267_799);
    assert!(
        bytes / tuples <= 128,
        "{bytes} bytes for {tuples} tuples: {} per tuple",
        bytes / tuples
    );
}

#[test]
fn a_read_after_a_create_sees_it_like_the_scan_only_executor() {
    let mut data = served_university_base(1);
    let q = parse_query("Q(X, N) <- person(X, N, A, Ad), A >= 16, A < 18").unwrap();
    let sorted = |rows: Vec<Vec<Const>>| {
        let mut rows = rows;
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
}
