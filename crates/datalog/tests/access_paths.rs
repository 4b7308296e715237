//! Access-path accounting: what [`EvalStats`] says about each physical
//! path, pinned as exact counts.
//!
//! The hash-probe, range-probe and fused-chain numbers were recorded on
//! the engine before it was rewritten to compiled slot rows, on these same
//! scenarios: the rewrite changed how a tuple is touched, not which tuples
//! are. The scan-or-build numbers are new with the rule they check: an
//! unindexed bound column is answered by one filtered scan per binding up
//! to the break-even, and by one ephemeral index build beyond it.

use sqo_datalog::eval::{answer_query, answer_query_with, EvalOptions, EvalStats};
use sqo_datalog::fxhash::FxHashMap;
use sqo_datalog::parser::parse_query;
use sqo_datalog::program::EdbDatabase;
use sqo_datalog::{Const, PredSym};

/// `small(0..5)`, `big(i, i % 10)` for `i` in `0..200`.
fn small_big(index_big: bool) -> EdbDatabase {
    let mut db = EdbDatabase::new();
    for i in 0..5 {
        db.insert(PredSym::new("small"), &[Const::Int(i)]).unwrap();
    }
    for i in 0..200 {
        db.insert(PredSym::new("big"), &[Const::Int(i), Const::Int(i % 10)])
            .unwrap();
    }
    if index_big {
        db.declare_hash_index(PredSym::new("big"), 1);
        db.declare_ordered_index(PredSym::new("big"), 0);
    }
    db
}

fn per_pred(counts: &[(&str, u64)]) -> FxHashMap<PredSym, u64> {
    counts.iter().map(|(p, n)| (PredSym::new(*p), *n)).collect()
}

#[test]
fn hash_probe_examines_only_the_postings() {
    let db = small_big(true);
    let q = parse_query("Q(X, I) <- small(X), big(I, X)").unwrap();
    let (rows, got) = answer_query(&db, &q).unwrap();
    assert_eq!(rows.len(), 100);
    let want = EvalStats {
        tuples_examined: 105,
        bindings_produced: 105,
        join_input_tuples: 6,
        join_output_tuples: 105,
        index_probes: 5,
        scans: 1,
        per_pred: per_pred(&[("small", 5), ("big", 100)]),
        ..EvalStats::default()
    };
    assert_eq!(got, want);
}

#[test]
fn range_probe_examines_only_the_range() {
    let db = small_big(true);
    let q = parse_query("Q(I, X) <- big(I, X), I < 30, I >= 10").unwrap();
    let (rows, got) = answer_query(&db, &q).unwrap();
    assert_eq!(rows.len(), 20);
    let want = EvalStats {
        tuples_examined: 20,
        bindings_produced: 20,
        join_input_tuples: 1,
        join_output_tuples: 20,
        range_probes: 1,
        per_pred: per_pred(&[("big", 20)]),
        ..EvalStats::default()
    };
    assert_eq!(got, want);
}

#[test]
fn fused_chain_walks_postings_without_intermediate_bindings() {
    // start(0..3); a: i -> i+10, i+11; b: j -> j+100; c: k -> k % 2.
    let mut db = EdbDatabase::new();
    let int = |v: i64| Const::Int(v);
    for i in 0..3 {
        db.insert(PredSym::new("start"), &[int(i)]).unwrap();
    }
    for i in 0..20 {
        db.insert(PredSym::new("a"), &[int(i), int(i + 10)])
            .unwrap();
        db.insert(PredSym::new("a"), &[int(i), int(i + 11)])
            .unwrap();
        db.insert(PredSym::new("b"), &[int(i + 10), int(i + 110)])
            .unwrap();
        db.insert(PredSym::new("c"), &[int(i + 110), int(i % 2)])
            .unwrap();
    }
    for p in ["a", "b", "c"] {
        db.declare_hash_index(PredSym::new(p), 0);
    }
    let q = parse_query("Q(X, W) <- start(X), a(X, Y), b(Y, Z), c(Z, W)").unwrap();
    let (rows, got) = answer_query(&db, &q).unwrap();
    assert_eq!(rows.len(), 6);
    let want = EvalStats {
        tuples_examined: 21,
        bindings_produced: 9,
        join_input_tuples: 4,
        join_output_tuples: 9,
        index_probes: 15,
        scans: 1,
        chains_fused: 1,
        per_pred: per_pred(&[("start", 3), ("a", 6), ("b", 6), ("c", 6)]),
        ..EvalStats::default()
    };
    assert_eq!(got, want);
    // The reference executor does not fuse: it binds Y and Z.
    let (_, unfused) = answer_query_with(&db, &q, &EvalOptions::scan_only()).unwrap();
    assert_eq!(unfused.chains_fused, 0);
    assert!(unfused.bindings_produced > got.bindings_produced);
}

#[test]
fn one_binding_on_an_unindexed_column_scans_without_building() {
    let db = small_big(false);
    let q = parse_query("Q(I) <- X = 3, big(I, X)").unwrap();
    let (rows, got) = answer_query(&db, &q).unwrap();
    assert_eq!(rows.len(), 20);
    // One pass over `big`, filtering on X: no ephemeral index.
    assert_eq!(got.scans, 1);
    assert_eq!(got.tuples_examined, 200);
    assert_eq!(got.bindings_produced, 20);
}

#[test]
fn many_bindings_on_an_unindexed_column_build_exactly_once() {
    let mut db = small_big(false);
    for i in 0..50 {
        db.insert(PredSym::new("wide"), &[Const::Int(i % 10), Const::Int(i)])
            .unwrap();
    }
    let q = parse_query("Q(I, J) <- wide(X, J), big(I, X)").unwrap();
    let (rows, got) = answer_query(&db, &q).unwrap();
    assert_eq!(rows.len(), 1000);
    // One scan of `wide` plus one build pass over `big`; each of the 50
    // bindings then examines its 20 matches only.
    assert_eq!(got.scans, 2);
    assert_eq!(got.examined("wide"), 50);
    assert_eq!(got.examined("big"), 1000);
    // The same index serves a second atom over the same bound column.
    let q2 = parse_query("Q(I, K) <- wide(X, J), big(I, X), big(K, X)").unwrap();
    let (_, again) = answer_query(&db, &q2).unwrap();
    assert_eq!(again.scans, 2);
}
