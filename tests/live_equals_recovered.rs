//! A recovered object base equals the live one it was logged from, in
//! order: every mutator — creates with structure-valued defaults,
//! `create_struct`, `set_attr`, `link` and `unlink` with inverses
//! (self-links too), `delete` of linked objects, `define_asr` — is
//! driven against a durable base, which is then reopened WAL-only and
//! from a snapshot plus WAL tail, and compared with the live base
//! extent by extent, object by object, link list by link list, rule by
//! rule and EDB row by EDB row.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantic_sqo::objdb::{ObjectDb, Oid, Value};
use semantic_sqo::odl::Schema;
use std::path::PathBuf;

/// A subclass, a structure attribute (auto-created by default), a
/// self-inverse relationship, a relationship whose inverse is on the
/// same class, and to-one sides that refuse a second link.
const ODL: &str = r#"
struct Addr {
    attribute string city;
    attribute short zip;
};

interface Person {
    extent Person;
    attribute string name;
    attribute short age;
    attribute float score;
    attribute Addr home;
    relationship Set<Person> friends inverse Person::friends;
    relationship Set<Person> mentors inverse Person::mentored_by;
    relationship Set<Person> mentored_by inverse Person::mentors;
    relationship Set<Club> member_of inverse Club::members;
};

interface Student : Person {
    extent Student;
    attribute short year;
    relationship Club leads inverse Club::leader;
};

interface Club {
    extent Club;
    attribute string title;
    relationship Set<Person> members inverse Person::member_of;
    relationship Student leader inverse Student::leads;
};
"#;

const SHARDS: usize = 4;

fn schema() -> Schema {
    Schema::parse(ODL).unwrap()
}

fn test_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sqo_live_recovered_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Picks one of `items`.
fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Drives `db` through `steps` seeded mutations, calling `persist` once
/// halfway when asked. A refused write (a to-one side already linked, a
/// type the schema refuses) is part of the script: it must log nothing.
fn drive(db: &mut ObjectDb, seed: u64, steps: usize, persist_halfway: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut persons: Vec<Oid> = Vec::new();
    let mut clubs: Vec<Oid> = Vec::new();
    let mut addrs: Vec<Oid> = Vec::new();
    for step in 0..steps {
        if persist_halfway && step == steps / 2 {
            db.persist().unwrap();
        }
        if step == steps / 3 {
            db.define_asr("circle", "Person", &["friends", "member_of"])
                .unwrap();
            // Collides with the relationship `friends`: the catalog
            // qualifies the view's name.
            db.define_asr("friends", "Person", &["mentors", "friends"])
                .unwrap();
        }
        // Only creates until there is something to link.
        let kinds = if persons.len() < 4 || clubs.is_empty() {
            3
        } else {
            12
        };
        match rng.gen_range(0..kinds) {
            0 => {
                let class = pick(&mut rng, &["Person", "Student"]);
                let mut attrs = vec![("name", Value::from(format!("p{step}")))];
                if rng.gen_bool(0.5) {
                    attrs.push(("age", Value::Int(rng.gen_range(18..70))));
                }
                if rng.gen_bool(0.3) && !addrs.is_empty() {
                    attrs.push(("home", Value::Obj(pick(&mut rng, &addrs))));
                }
                if class == "Student" && rng.gen_bool(0.5) {
                    attrs.push(("year", Value::Int(rng.gen_range(1..5))));
                }
                persons.push(db.create(class, attrs).unwrap());
            }
            1 => {
                let title = Value::from(format!("c{step}"));
                clubs.push(db.create("Club", vec![("title", title)]).unwrap());
            }
            2 => {
                let city = Value::from(format!("city{}", rng.gen_range(0..5)));
                addrs.push(db.create_struct("Addr", vec![("city", city)]).unwrap());
            }
            3 => {
                let p = pick(&mut rng, &persons);
                let (attr, v) = match rng.gen_range(0..4) {
                    // An int into a float attribute: coerced before the log.
                    0 => ("score", Value::Int(rng.gen_range(0..100))),
                    1 => ("score", Value::Real(rng.gen_range(0.0..1.0))),
                    2 => ("age", Value::Int(rng.gen_range(18..70))),
                    _ => ("age", Value::from("refused")),
                };
                let _ = db.set_attr(p, attr, v);
            }
            4 if !addrs.is_empty() => {
                let a = pick(&mut rng, &addrs);
                db.set_attr(a, "zip", Value::Int(rng.gen_range(0..99)))
                    .unwrap();
            }
            4..=7 => {
                let a = pick(&mut rng, &persons);
                // A self-link one time in four.
                let b = if rng.gen_bool(0.25) {
                    a
                } else {
                    pick(&mut rng, &persons)
                };
                let rel = pick(&mut rng, &["friends", "mentors", "mentored_by"]);
                db.link(a, rel, b).unwrap();
            }
            8 => {
                let (p, c) = (pick(&mut rng, &persons), pick(&mut rng, &clubs));
                if rng.gen_bool(0.5) {
                    db.link(p, "member_of", c).unwrap();
                } else {
                    // Refused when either to-one side is taken, or when
                    // `p` is no student.
                    let _ = db.link(p, "leads", c);
                }
            }
            9 => {
                let a = pick(&mut rng, &persons);
                let rel = pick(&mut rng, &["friends", "mentors", "member_of"]);
                if let Some(&b) = db.linked(a, rel).unwrap().first() {
                    assert!(db.unlink(a, rel, b).unwrap());
                }
            }
            10 => {
                let i = rng.gen_range(0..persons.len());
                db.delete(persons.swap_remove(i)).unwrap();
            }
            _ => {
                let i = rng.gen_range(0..clubs.len());
                db.delete(clubs.swap_remove(i)).unwrap();
            }
        }
    }
}

/// Asserts `back` equals `live` wherever order shows.
fn assert_same(live: &ObjectDb, back: &ObjectDb, what: &str) {
    assert_eq!(back.object_count(), live.object_count(), "{what}: objects");
    let schema = live.schema();
    let names = (schema.classes().iter().map(|c| &c.name))
        .chain(schema.structures().iter().map(|s| &s.name));
    for name in names {
        assert_eq!(
            back.extent(name),
            live.extent(name),
            "{what}: extent {name}"
        );
        for &oid in live.extent(name) {
            let (l, b) = (live.get(oid).unwrap(), back.get(oid).unwrap());
            assert_eq!(b.class, l.class, "{what}: class of {oid}");
            assert_eq!(b.attrs, l.attrs, "{what}: attributes of {oid}");
        }
    }
    for class in schema.classes() {
        for rel in &class.relationships {
            for &oid in live.extent(&class.name) {
                assert_eq!(
                    back.linked(oid, &rel.name).unwrap(),
                    live.linked(oid, &rel.name).unwrap(),
                    "{what}: {oid}.{}",
                    rel.name
                );
            }
        }
    }
    let rules =
        |db: &ObjectDb| -> Vec<String> { db.asr_rules().iter().map(ToString::to_string).collect() };
    assert_eq!(rules(back), rules(live), "{what}: ASR rules");
    let (live_edb, back_edb) = (live.edb_pinned(), back.edb_pinned());
    assert_eq!(
        back.catalog().relations.len(),
        live.catalog().relations.len()
    );
    for decl in &live.catalog().relations {
        let (l, b) = (live_edb.relation(&decl.pred), back_edb.relation(&decl.pred));
        assert_eq!(b.is_some(), l.is_some(), "{what}: relation {}", decl.pred);
        if let (Some(l), Some(b)) = (l, b) {
            assert!(b.rows().eq(l.rows()), "{what}: rows of {}", decl.pred);
        }
    }
}

#[test]
fn a_recovered_head_equals_the_live_head_in_order() {
    for seed in [1, 2, 3, 4] {
        for (persist, how) in [(false, "wal_only"), (true, "snapshot_wal")] {
            let dir = test_dir(&format!("{seed}_{how}"));
            let mut live = ObjectDb::open(schema(), &dir, SHARDS).unwrap();
            drive(&mut live, seed, 400, persist);
            assert!(live.object_count() > 20, "seed {seed}: the script ran");
            let back = ObjectDb::open(schema(), &dir, SHARDS).unwrap();
            assert_same(&live, &back, &format!("seed {seed}, {how}"));
            drop((live, back));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
