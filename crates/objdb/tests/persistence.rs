//! Durability and snapshot-isolation integration tests: save/open
//! round-trips through the sharded store, WAL-tail recovery, and the
//! generation-tagged EDB cache that keeps pinned readers isolated from
//! (and unaffected by) later writers.

use sqo_datalog::program::EdbDatabase;
use sqo_objdb::{ObjectDb, Oid, UniversityConfig, Value};
use sqo_obs as obs;
use sqo_odl::fixtures::university_schema;
use std::path::PathBuf;

/// A fresh per-test scratch directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqo_objdb_{}_{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every base relation of `db`'s EDB as (pred, sorted tuples) — the
/// canonical logical fingerprint we compare across recoveries.
fn edb_fingerprint(db: &ObjectDb) -> Vec<(String, Vec<Vec<sqo_datalog::Const>>)> {
    let edb = db.edb_pinned();
    let mut out = Vec::new();
    for decl in &db.catalog().relations {
        if let Some(rel) = edb.relation(&decl.pred) {
            let mut tuples: Vec<_> = rel.rows().map(<[_]>::to_vec).collect();
            tuples.sort();
            out.push((decl.pred.name().to_string(), tuples));
        }
    }
    out.sort();
    out
}

fn relation_len(edb: &EdbDatabase, pred: &str) -> usize {
    edb.relation(&pred.into()).map(|r| r.len()).unwrap_or(0)
}

#[test]
fn university_save_open_round_trip_is_identical() {
    let data = UniversityConfig {
        persons: 30,
        students: 40,
        faculty: 10,
        courses: 8,
        sections_per_course: 2,
        takes_per_student: 3,
        ..UniversityConfig::default()
    }
    .build()
    .unwrap();
    let mut db = data.db;
    db.define_asr("takes_course", "Student", &["takes", "is_section_of"])
        .unwrap();

    let dir = test_dir("uni_round_trip");
    db.save_to(&dir, 8).unwrap();
    let back = ObjectDb::open(university_schema(), &dir, 8).unwrap();

    assert_eq!(back.object_count(), db.object_count());
    for class in ["Person", "Student", "Faculty", "TA", "Course", "Section"] {
        assert_eq!(back.extent(class), db.extent(class), "extent {class}");
    }
    for &s in &data.students {
        assert_eq!(back.get(s).unwrap().attrs, db.get(s).unwrap().attrs);
        assert_eq!(
            back.linked(s, "takes").unwrap(),
            db.linked(s, "takes").unwrap()
        );
    }
    assert_eq!(back.asr_rules().len(), 1);
    assert_eq!(
        back.asr_rules()[0].to_string(),
        db.asr_rules()[0].to_string()
    );
    assert_eq!(edb_fingerprint(&back), edb_fingerprint(&db));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_only_recovery_replays_every_mutation_kind() {
    let dir = test_dir("wal_only");
    let (s, sec) = {
        let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        let s = db
            .create(
                "Student",
                vec![("name", "ann".into()), ("age", Value::Int(20))],
            )
            .unwrap();
        let sec = db.create("Section", vec![]).unwrap();
        let sec2 = db.create("Section", vec![]).unwrap();
        let course = db.create("Course", vec![]).unwrap();
        db.link(s, "takes", sec).unwrap();
        db.link(s, "takes", sec2).unwrap();
        db.link(sec, "is_section_of", course).unwrap();
        db.set_attr(s, "age", Value::Int(21)).unwrap();
        db.unlink(s, "takes", sec2).unwrap();
        db.delete(course).unwrap();
        db.define_asr("enrolled", "Student", &["takes"]).unwrap();
        (s, sec)
        // Dropped without persist(): the WAL is the only durable state.
    };
    let back = ObjectDb::open(university_schema(), &dir, 4).unwrap();
    assert_eq!(back.attr(s, "age"), Some(&Value::Int(21)));
    assert_eq!(back.linked(s, "takes").unwrap(), vec![sec]);
    assert_eq!(back.linked(sec, "taken_by").unwrap(), vec![s]);
    assert_eq!(back.extent("Course").len(), 0);
    assert!(back.linked(sec, "is_section_of").unwrap().is_empty());
    assert_eq!(back.asr_rules().len(), 1);
    // New writes allocate past the recovered watermark.
    let mut back = back;
    let fresh = back.create("Person", vec![]).unwrap();
    assert!(fresh.0 > sec.0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_plus_wal_tail_recovery() {
    let dir = test_dir("snap_tail");
    let (a, b) = {
        let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        let a = db
            .create("Person", vec![("name", "before".into())])
            .unwrap();
        let report = db.persist().unwrap().expect("durable");
        assert!(report.snapshot_bytes > 0);
        // Post-snapshot writes live only in the WAL tail.
        let b = db.create("Person", vec![("name", "after".into())]).unwrap();
        db.set_attr(a, "age", Value::Int(33)).unwrap();
        (a, b)
    };
    let back = ObjectDb::open(university_schema(), &dir, 4).unwrap();
    assert_eq!(back.attr(a, "name"), Some(&Value::Str("before".into())));
    assert_eq!(back.attr(a, "age"), Some(&Value::Int(33)));
    assert_eq!(back.attr(b, "name"), Some(&Value::Str("after".into())));
    let report = back.store().unwrap().recover_report().clone();
    assert!(report.had_snapshot);
    assert!(report.wal_records_replayed >= 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite regression: a `create` must not disturb cached EDB state
/// pinned at an older generation, and must bump only the written
/// shard's generation — no whole-store invalidation.
#[test]
fn pinned_edb_snapshot_survives_later_writes() {
    obs::set_enabled(true);
    let dir = test_dir("pinned_edb");
    let mut db = ObjectDb::open(university_schema(), &dir, 8).unwrap();
    for i in 0..16 {
        db.create("Person", vec![("name", format!("p{i}").into())])
            .unwrap();
    }
    let g = db.generation();
    let pinned = db.edb_pinned();
    let pinned_people = relation_len(&pinned, "person");
    assert_eq!(pinned_people, 16);

    let store = db.store().unwrap().clone();
    let before_gens: Vec<u64> = (1..=16).map(|oid| store.shard_generation(oid)).collect();
    let snap_before = {
        obs::flush_local();
        obs::snapshot()
    };

    // Writers advance to G+k.
    let fresh = db.create("Person", vec![("name", "late".into())]).unwrap();
    db.set_attr(fresh, "age", Value::Int(9)).unwrap();
    assert!(db.generation() > g);

    // The pinned snapshot is bitwise-stable: same relation contents.
    assert_eq!(relation_len(&pinned, "person"), pinned_people);
    // A fresh read sees the new state.
    assert_eq!(relation_len(&db.edb_pinned(), "person"), 17);

    // Only the shards owning the written OIDs advanced. The create
    // wrote two objects (the person and its auto-created Address
    // struct), so up to two shards may legitimately move.
    let store_after = db.store().unwrap();
    let addr = db.attr(fresh, "address").and_then(Value::as_oid).unwrap();
    let shard_of = |oid: u64| {
        (oid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % store_after.shard_count()
    };
    let written = [shard_of(fresh.0), shard_of(addr.0)];
    for oid in 1..=16u64 {
        if store_after.shard_generation(oid) != before_gens[(oid - 1) as usize] {
            assert!(
                written.contains(&shard_of(oid)),
                "untouched shard generation moved for oid {oid}"
            );
        }
    }

    obs::flush_local();
    let delta = obs::snapshot().since(&snap_before);
    // The writes hit the WAL but did not invalidate any plan cache.
    assert!(delta.counter(obs::Counter::StoreWalAppends) >= 2);
    assert_eq!(delta.counter(obs::Counter::PlanCacheInvalidations), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Late method materialization copies-on-write: facts land in the
/// current cache entry without leaking into pinned snapshots.
#[test]
fn method_facts_do_not_leak_into_pinned_snapshots() {
    let mut db = ObjectDb::new(university_schema());
    db.create("Faculty", vec![("salary", Value::Real(50_000.0))])
        .unwrap();
    db.register_method(
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
    let pinned = db.edb_pinned();
    assert_eq!(relation_len(&pinned, "taxes_withheld"), 0);
    db.ensure_method_facts("taxes_withheld", &[sqo_datalog::Const::Real(0.1.into())])
        .unwrap();
    // Pinned snapshot untouched; the live cache carries the facts.
    assert_eq!(relation_len(&pinned, "taxes_withheld"), 0);
    assert_eq!(relation_len(&db.edb_pinned(), "taxes_withheld"), 1);
    // And the materialization is remembered (no re-invocation).
    let calls = db
        .ensure_method_facts("taxes_withheld", &[sqo_datalog::Const::Real(0.1.into())])
        .unwrap();
    assert_eq!(calls, 0);
}

/// Isolation acceptance check: answers computed against a pinned
/// generation are identical before and after writers advance.
#[test]
fn pinned_generation_answers_are_stable_under_writes() {
    let data = UniversityConfig {
        persons: 10,
        students: 12,
        faculty: 6,
        courses: 4,
        sections_per_course: 2,
        takes_per_student: 2,
        ..UniversityConfig::default()
    }
    .build()
    .unwrap();
    let mut db = data.db;
    let pinned = db.edb_pinned();
    let answers_at_g: Vec<Vec<sqo_datalog::Const>> = {
        let mut t: Vec<_> = pinned
            .relation(&"faculty".into())
            .unwrap()
            .rows()
            .map(<[_]>::to_vec)
            .collect();
        t.sort();
        t
    };
    for k in 0..25 {
        db.create(
            "Faculty",
            vec![
                ("name", format!("late{k}").into()),
                ("salary", Value::Real(90_000.0)),
            ],
        )
        .unwrap();
    }
    let mut answers_again: Vec<Vec<sqo_datalog::Const>> = pinned
        .relation(&"faculty".into())
        .unwrap()
        .rows()
        .map(<[_]>::to_vec)
        .collect();
    answers_again.sort();
    assert_eq!(answers_again, answers_at_g);
    // The live view has moved on.
    assert_eq!(
        relation_len(&db.edb_pinned(), "faculty"),
        answers_at_g.len() + 25
    );
}

/// Deleting in one session and recovering in the next leaves no
/// dangling extent or link entries.
#[test]
fn delete_is_durable() {
    let dir = test_dir("delete_durable");
    let (s, sec) = {
        let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        let s = db.create("Student", vec![]).unwrap();
        let sec = db.create("Section", vec![]).unwrap();
        db.link(s, "takes", sec).unwrap();
        db.delete(s).unwrap();
        (s, sec)
    };
    let back = ObjectDb::open(university_schema(), &dir, 4).unwrap();
    assert!(back.get(s).is_none());
    assert!(back.get(sec).is_some());
    assert_eq!(back.extent("Student").len(), 0);
    assert!(back.linked(sec, "taken_by").unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compound mutations are crash-atomic: a `link` (relation + inverse)
/// and a `delete` (unlink sweep + removal) each commit as exactly ONE
/// WAL frame, so no crash point can persist a forward link whose
/// inverse is missing, or a half-severed object.
#[test]
fn link_and_delete_commit_as_single_wal_frames() {
    let dir = test_dir("compound_atomic");
    let (s, sec) = {
        let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        let s = db.create("Student", vec![]).unwrap();
        let sec = db.create("Section", vec![]).unwrap();
        (s, sec)
    };
    let frames = |dir: &PathBuf| {
        let db = ObjectDb::open(university_schema(), dir, 4).unwrap();
        db.store().unwrap().recover_report().wal_records_replayed
    };
    let base = frames(&dir);
    {
        let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        db.link(s, "takes", sec).unwrap();
    }
    assert_eq!(frames(&dir), base + 1, "link + inverse must be one frame");
    {
        let db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        assert_eq!(db.linked(sec, "taken_by").unwrap(), vec![s]);
    }
    {
        let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        db.delete(s).unwrap();
    }
    assert_eq!(
        frames(&dir),
        base + 2,
        "delete's unlinks + removal must be one frame"
    );
    let back = ObjectDb::open(university_schema(), &dir, 4).unwrap();
    assert!(back.get(s).is_none());
    assert!(back.linked(sec, "taken_by").unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Re-opening with a different shard count re-distributes cleanly.
#[test]
fn reshard_on_reopen_preserves_answers() {
    let dir = test_dir("reshard");
    let fingerprint = {
        let data = UniversityConfig {
            persons: 12,
            students: 15,
            faculty: 5,
            courses: 4,
            sections_per_course: 2,
            takes_per_student: 2,
            ..UniversityConfig::default()
        }
        .build()
        .unwrap();
        data.db.save_to(&dir, 8).unwrap();
        let db = ObjectDb::open(university_schema(), &dir, 8).unwrap();
        edb_fingerprint(&db)
    };
    let back = ObjectDb::open(university_schema(), &dir, 3).unwrap();
    assert_eq!(edb_fingerprint(&back), fingerprint);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// OIDs handed out before a crash are never re-issued after recovery.
#[test]
fn oid_watermark_survives_recovery() {
    let dir = test_dir("watermark");
    let last = {
        let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
        let mut last = Oid(0);
        for _ in 0..10 {
            last = db.create("Person", vec![]).unwrap();
        }
        db.delete(last).unwrap();
        last
    };
    let mut back = ObjectDb::open(university_schema(), &dir, 4).unwrap();
    let fresh = back.create("Person", vec![]).unwrap();
    assert!(
        fresh.0 > last.0,
        "fresh {fresh} must outrank deleted {last}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
