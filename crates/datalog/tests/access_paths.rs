//! Access-path accounting: what [`EvalStats`] says about each physical
//! path, pinned as exact counts.
//!
//! The hash-probe and range-probe numbers were recorded on the engine
//! before it was rewritten to compiled slot rows, on these same scenarios:
//! the rewrite changed how a tuple is touched, not which tuples are. The
//! scan-or-build numbers are new with the rule they check: an
//! unindexed bound column is answered by one filtered scan per binding up
//! to the break-even, and by one ephemeral index build beyond it. So are
//! the hash-or-range numbers: with both indexes usable, the one handing a
//! binding fewer candidates is probed.

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

/// `(index_probes, range_probes, tuples examined)` of one query.
fn probes(db: &EdbDatabase, query: &str) -> (u64, u64, u64) {
    let (_, got) = answer_query(db, &parse_query(query).unwrap()).unwrap();
    assert_eq!(got.scans, 0, "{query}");
    (got.index_probes, got.range_probes, got.tuples_examined)
}

/// `big`'s hash index holds 10 keys of 20 rows each: being bound does not
/// win by itself, a two-valued column can be hashed.
#[test]
fn a_low_cardinality_hash_index_loses_to_a_narrower_range() {
    let db = small_big(true);
    // A constant key: its exact postings, 20 rows, against the range's 5.
    assert_eq!(probes(&db, "Q(I) <- big(I, 3), I < 5"), (0, 1, 5));
    assert_eq!(probes(&db, "Q(I) <- I < 5, big(I, 3)"), (0, 1, 5));
    // A bound variable: len / distinct = 20 expected rows.
    assert_eq!(probes(&db, "Q(I) <- X = 3, big(I, X), I >= 195"), (0, 1, 5));
}

#[test]
fn a_hash_index_beats_a_wider_range_and_takes_the_tie() {
    let db = small_big(true);
    assert_eq!(probes(&db, "Q(I) <- big(I, 3), I < 100"), (1, 0, 20));
    assert_eq!(probes(&db, "Q(I) <- I < 100, big(I, 3)"), (1, 0, 20));
    assert_eq!(probes(&db, "Q(I) <- X = 3, big(I, X), I < 100"), (1, 0, 20));
    // 20 rows either way.
    assert_eq!(probes(&db, "Q(I) <- big(I, 3), I < 20"), (1, 0, 20));
    assert_eq!(probes(&db, "Q(I) <- X = 3, big(I, X), I < 20"), (1, 0, 20));
    // An absent key is an exact 0, which no range undercuts.
    assert_eq!(probes(&db, "Q(I) <- big(I, 77), I < 5"), (1, 0, 0));
    // A unique key hands over its one row; the empty range that would
    // hand over none is not even counted.
    let mut db = db;
    db.declare_hash_index(PredSym::new("big"), 0);
    db.declare_ordered_index(PredSym::new("big"), 1);
    assert_eq!(probes(&db, "Q(X) <- big(7, X), X > 50"), (1, 0, 1));
    assert_eq!(probes(&db, "Q(X) <- I = 7, big(I, X), X > 50"), (1, 0, 1));
}

/// Two hash indexes that promise a bound variable the same `len /
/// distinct`: the higher column is probed. Three values a column, skewed
/// the opposite way in each, so the examined count names the column.
#[test]
fn two_hash_indexes_that_tie_probe_the_higher_column() {
    let mut db = EdbDatabase::new();
    let pair = PredSym::new("pair");
    for (a, b) in [(0, 1), (1, 1), (2, 1), (0, 0), (0, 2)] {
        db.insert(pair, &[Const::Int(a), Const::Int(b)]).unwrap();
    }
    db.declare_hash_index(pair, 0);
    db.declare_hash_index(pair, 1);
    // Column 1 holds three 1s, column 0 one.
    assert_eq!(probes(&db, "Q() <- A = 1, B = 1, pair(A, B)"), (1, 0, 3));
    // Column 1 holds one 0, column 0 three.
    assert_eq!(probes(&db, "Q() <- A = 0, B = 0, pair(A, B)"), (1, 0, 1));
    // Constants are counted exactly, so there is no tie to break.
    assert_eq!(probes(&db, "Q() <- pair(1, 1)"), (1, 0, 1));
}

/// A path is joined one hop at a time: each hop probes the declared hash
/// index on its source column once per binding reaching it, and binds
/// the intermediate variables like any other.
#[test]
fn a_three_hop_path_probes_each_hop_once_per_binding() {
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
    let (mut rows, got) = answer_query(&db, &q).unwrap();
    assert_eq!(rows.len(), 6);
    // One scan of `start` (3 rows); then 3 probes of `a` (2 postings
    // each), and 6 each of `b` and `c` (one posting each).
    let want = EvalStats {
        tuples_examined: 21,
        bindings_produced: 21,
        join_input_tuples: 16,
        join_output_tuples: 21,
        index_probes: 15,
        scans: 1,
        per_pred: per_pred(&[("start", 3), ("a", 6), ("b", 6), ("c", 6)]),
        ..EvalStats::default()
    };
    assert_eq!(got, want);
    let (mut reference, _) = answer_query_with(&db, &q, &EvalOptions::scan_only()).unwrap();
    rows.sort();
    reference.sort();
    assert_eq!(rows, reference);
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
