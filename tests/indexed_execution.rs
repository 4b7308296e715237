//! Cross-crate tests for the indexed execution engine and the
//! index-aware cost model:
//!
//! * objdb-level differential — indexed and scan-only execution agree on
//!   the generated university store across representative query shapes;
//! * the cost model prefers an index probe over a scan *exactly* when
//!   the index exists (same data: a string column against an
//!   object-valued one, with and without a `key` declaration);
//! * range-probe pricing is monotone in the true in-range count;
//! * the extent-first anti-join prefix is deduplicated per
//!   (extent, OID) pair;
//! * [`semantic_sqo::OptimizationReport::best_plan`] surfaces the
//!   cost-model choice, picking the index-reaching rewrite.

use semantic_sqo::datalog::parser::parse_query;
use semantic_sqo::datalog::{Literal, Query};
use semantic_sqo::objdb::exec::rewrite_for_extents;
use semantic_sqo::objdb::{
    estimate_cost, execute_with, ExecOptions, ObjectDb, UniversityConfig, Value,
};
use semantic_sqo::odl::Schema;
use semantic_sqo::SemanticOptimizer;

fn sorted_answers(
    db: &ObjectDb,
    q: &Query,
    opts: ExecOptions,
) -> Vec<Vec<semantic_sqo::datalog::Const>> {
    let (answers, _) = execute_with(db, q, opts).unwrap_or_else(|e| panic!("[{q}]: {e}"));
    let mut rows: Vec<_> = answers.rows().map(<[_]>::to_vec).collect();
    rows.sort();
    rows
}

/// Indexed and scan-only execution return identical answer sets on the
/// generated university store, across selections, ranges, joins through
/// relationships, negation, and method relations.
#[test]
fn objdb_indexed_matches_scan_only() {
    let data = UniversityConfig::default().build().unwrap();
    let db = &data.db;
    let queries = [
        "Q(X, N) <- faculty(X, N, A, S, R, Ad)",
        "Q(N) <- faculty(X, N, A, S, R, Ad), A < 35",
        "Q(N) <- faculty(X, N, A, S, R, Ad), S >= 60000, S < 100000",
        "Q(N) <- faculty(X, N, A, S, R, Ad), R = \"professor\"",
        "Q(N) <- person(X, N, A, Ad), not faculty(X, N2, A2, S, R, Ad2)",
        "Q(SN, FN) <- is_taught_by(Sec, F), faculty(F, FN, A, S, R, Ad), \
         section(Sec, SN)",
        "Q(N, V) <- faculty(X, N, A, S, R, Ad), taxes_withheld(X, 0.2, V), A >= 40",
        "Q(TN) <- takes(T, Sec), is_taught_by(Sec, F), faculty(F, FN, A, S, R, Ad), \
         ta(T, TN, TA2, Sid, E, Ad2), A < 50",
    ];
    for src in queries {
        let q = parse_query(src).unwrap();
        assert_eq!(
            sorted_answers(db, &q, ExecOptions::default()),
            sorted_answers(db, &q, ExecOptions::scan_only()),
            "indexed vs scan-only disagree on [{src}]"
        );
    }
}

/// The cost model prices an equality selection as a probe exactly on the
/// columns the loader indexes: every string attribute, key or not — two
/// stores differing only in a `key tag` declaration price alike — and no
/// object-valued column, which nothing but an OID join binds, and that is
/// probed from the other side.
#[test]
fn cost_model_prefers_hash_probe_exactly_when_indexed() {
    let keyed = r#"
        struct Crate {
            attribute string label;
        };
        interface Item {
            extent Item;
            key tag;
            attribute string tag;
            attribute string color;
            attribute Crate packed_in;
        };
    "#;
    let unkeyed = keyed.replace("key tag;\n", "");
    let build = |odl: &str| {
        let mut db = ObjectDb::new(Schema::parse(odl).unwrap());
        for i in 0..300 {
            db.create(
                "Item",
                vec![
                    ("tag", Value::from(format!("t{i}"))),
                    (
                        "color",
                        Value::from(if i % 2 == 0 { "red" } else { "blue" }),
                    ),
                ],
            )
            .unwrap();
        }
        db
    };
    let with_key = build(keyed);
    let without_key = build(&unkeyed);
    let (tag, color, packed_in) = (1, 2, 3);
    for db in [&with_key, &without_key] {
        let edb = db.edb_pinned();
        let rel = edb.relation(&"item".into()).expect("item relation");
        assert!(rel.has_hash_index(tag), "a string attribute is indexed");
        assert!(rel.has_hash_index(color), "key or not");
        assert!(
            !rel.has_hash_index(packed_in),
            "an object-valued one is not"
        );
        assert!(!rel.has_ordered_index(packed_in));
    }

    let q_tag = parse_query("Q(X) <- item(X, \"t7\", Color, Crate)").unwrap();
    let a_crate = with_key
        .edb_pinned()
        .relation(&"item".into())
        .unwrap()
        .tuple_at(7)[packed_in];
    let q_crate = parse_query(&format!("Q(X) <- item(X, Tag, Color, {a_crate})")).unwrap();
    for db in [&with_key, &without_key] {
        let (probe, scan) = (estimate_cost(db, &q_tag), estimate_cost(db, &q_crate));
        assert!(
            probe < scan / 5.0,
            "hash probe must be priced well below the scan: probe={probe} scan={scan}"
        );
        // Both select one item of 300; only the access path differs.
        let (rows, by_tag) = execute_with(db, &q_tag, ExecOptions::default()).unwrap();
        assert_eq!((rows.len(), by_tag.index_probes, by_tag.scans), (1, 1, 0));
        let (rows, by_crate) = execute_with(db, &q_crate, ExecOptions::default()).unwrap();
        assert_eq!(
            (rows.len(), by_crate.index_probes, by_crate.scans),
            (1, 0, 1)
        );
    }

    // The model discounts where an index exists, and only there: the two
    // stores hold the same indexes, so every estimate is identical.
    let q_color = parse_query("Q(X) <- item(X, Tag, \"red\", Crate)").unwrap();
    for q in [&q_tag, &q_color, &q_crate] {
        let (a, b) = (estimate_cost(&with_key, q), estimate_cost(&without_key, q));
        assert_eq!(a, b, "[{q}] must price identically: {a} vs {b}");
    }
}

/// Range-probe pricing tracks the true in-range count: a narrow age
/// window must be priced below a wide one, which stays below the
/// unrestricted scan.
#[test]
fn cost_model_range_probe_monotone_in_range_width() {
    let data = UniversityConfig::default().build().unwrap();
    let db = &data.db;
    let narrow = parse_query("Q(N) <- faculty(X, N, A, S, R, Ad), A < 28").unwrap();
    let wide = parse_query("Q(N) <- faculty(X, N, A, S, R, Ad), A < 60").unwrap();
    let full = parse_query("Q(N) <- faculty(X, N, A, S, R, Ad)").unwrap();
    let (cn, cw, cf) = (
        estimate_cost(db, &narrow),
        estimate_cost(db, &wide),
        estimate_cost(db, &full),
    );
    assert!(cn < cw, "narrow range must cost less: {cn} vs {cw}");
    assert!(
        cw < cf,
        "any range must undercut the full scan: {cw} vs {cf}"
    );
}

/// Satellite: several anti-joins (or repeated class atoms) restricting
/// the same OID must prepend the extent scan once, not once per literal.
#[test]
fn extent_prefix_deduplicated_per_oid() {
    let data = UniversityConfig::default().build().unwrap();
    let db = &data.db;
    let q = parse_query(
        "Q(N) <- person(X, N, A, Ad), person(X, N, A, Ad), \
         not faculty(X, N2, A2, S, R, Ad2), not ta(X, N3, A3, Sid, E, Ad3)",
    )
    .unwrap();
    let physical = rewrite_for_extents(db, &q);
    let extent_scans = physical
        .body
        .iter()
        .filter(|l| matches!(l, Literal::Pos(a) if a.pred.name() == "person__extent"))
        .count();
    assert_eq!(
        extent_scans, 1,
        "expected exactly one person__extent prefix, got body: {physical}"
    );
    // The decomposition must not change answers.
    assert_eq!(
        sorted_answers(db, &q, ExecOptions::default()),
        sorted_answers(db, &q, ExecOptions::scan_only()),
    );
}

/// End-to-end: `best_plan` runs the index-aware chooser over the Step-3
/// equivalents and picks a plan at least as cheap as the original — and
/// with the salary IC in place, strictly cheaper, because the rewrite
/// reaches the ordered salary index the original query cannot use.
#[test]
fn best_plan_picks_index_reaching_rewrite() {
    // An IC-consistent store: professors (and only professors) earn at
    // or above the IC_PROF salary bound.
    let mut db = ObjectDb::new(semantic_sqo::odl::fixtures::university_schema());
    for i in 0..400usize {
        let professor = i % 10 == 0;
        db.create(
            "Faculty",
            vec![
                ("name", Value::from(format!("f{i}"))),
                ("age", Value::Int(30 + (i % 40) as i64)),
                (
                    "salary",
                    Value::Real(if professor {
                        90_000.0 + i as f64
                    } else {
                        40_000.0 + (i * 7 % 49_000) as f64
                    }),
                ),
                (
                    "rank",
                    Value::from(if professor { "professor" } else { "lecturer" }),
                ),
            ],
        )
        .unwrap();
    }
    let db = &db;
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text(
        "ic IC_PROF: Salary >= 90000 <- faculty(X, N, Age, Salary, Rank, Ad), \
         Rank = \"professor\".",
    )
    .unwrap();
    let report = opt
        .optimize("select x.name from x in Faculty where x.rank = \"professor\"")
        .unwrap();
    let (best, eq, costs) = report.best_plan(db).expect("equivalents exist");
    assert_eq!(costs.len(), report.equivalents().len());
    let original_cost = estimate_cost(db, &report.datalog);
    assert!(
        costs[best] < original_cost,
        "chosen plan {} must undercut the original: {} vs {original_cost}",
        eq.datalog,
        costs[best]
    );
    // The winning plan carries the IC-introduced salary bound that makes
    // the ordered-index range probe possible.
    assert!(
        eq.datalog
            .body
            .iter()
            .any(|l| matches!(l, Literal::Cmp(c) if c.to_string().contains("90000"))),
        "winner should carry the salary bound: {}",
        eq.datalog
    );
    // And it really answers identically under both executors.
    assert_eq!(
        sorted_answers(db, &eq.datalog, ExecOptions::default()),
        sorted_answers(db, &report.datalog, ExecOptions::scan_only()),
    );
}
