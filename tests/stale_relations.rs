//! A write makes stale only the EDB relations it changes, and the next
//! read rebuilds exactly those: so after any sequence of writes, the
//! EDB a read sees equals the one a base reopened from the same store
//! directory builds from scratch, relation by relation, row by row and
//! in order. Creates, `set_attr`s (salaries, which the `taxes_withheld`
//! method reads, among them), links, unlinks and deletes are driven
//! against a durable university base with an access support relation
//! defined halfway; reads are interleaved, some of them method queries,
//! some of them holding the EDB they read across the next writes, which
//! must leave it unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantic_sqo::datalog::parser::parse_query;
use semantic_sqo::datalog::program::EdbDatabase;
use semantic_sqo::datalog::{Const, Query};
use semantic_sqo::objdb::{
    execute, register_university_methods, ObjectDb, Oid, UniversityConfig, Value,
};
use semantic_sqo::obs::{self, Counter};
use semantic_sqo::odl::fixtures::university_schema;
use semantic_sqo::SemanticOptimizer;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SHARDS: usize = 4;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqo_stale_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable university base at `dir` with its method registered.
fn open(dir: &Path) -> ObjectDb {
    let mut db = ObjectDb::open(university_schema(), dir, SHARDS).unwrap();
    register_university_methods(&mut db).unwrap();
    db
}

/// Picks one of `items`.
fn pick(rng: &mut StdRng, items: &[Oid]) -> Oid {
    items[rng.gen_range(0..items.len())]
}

/// Every relation's rows, in order, by predicate name.
type Contents = Vec<(String, Vec<Vec<Const>>)>;

/// The [`Contents`] of `edb`.
fn contents(edb: &EdbDatabase) -> Contents {
    let mut rels: Vec<_> = edb
        .iter()
        .map(|(pred, rel)| {
            (
                pred.name().to_string(),
                rel.rows().map(<[_]>::to_vec).collect(),
            )
        })
        .collect();
    rels.sort();
    rels
}

/// The reads: OQL translated over the university schema, one of them a
/// method query, and the access support relation once it is defined.
fn reads() -> Vec<Query> {
    let plain = SemanticOptimizer::university();
    let oql = [
        "select x.name from x in Student where x.age < 30",
        "select x.name, y.number from x in Student, y in x.takes",
        "select x.name from x in Faculty where x.taxes_withheld(10%) < 5000",
        "select x.title, y.number from x in Course, y in x.has_sections",
        "select x.name from x in Person where x.age > 40",
    ];
    oql.iter()
        .map(|q| {
            let parsed = semantic_sqo::oql::parse_oql(q).unwrap();
            plain.translate(&parsed).unwrap().query
        })
        .collect()
}

/// Drives a durable base through `steps` seeded writes and reads, and
/// after each read compares its EDB with a reopened base's, which runs
/// the reads the live base ran since its last write (so both hold the
/// same method facts).
fn drive(seed: u64, steps: usize) {
    let dir = test_dir(&format!("seed{seed}"));
    let mut db = open(&dir);
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = reads();
    let asr_read = parse_query("Q(X, Y) <- asr(X, Y)").unwrap();
    let (mut students, mut faculty, mut tas) = (Vec::new(), Vec::new(), Vec::new());
    let (mut courses, mut sections, mut persons) = (Vec::new(), Vec::new(), Vec::new());
    let mut since_write: Vec<&Query> = Vec::new();
    let mut pinned: Option<(Arc<EdbDatabase>, Contents)> = None;
    let mut asr = false;
    let (mut reads, mut asr_rows, mut method_rows) = (0, 0, 0);
    for step in 0..steps {
        if step == steps / 2 {
            let path = ["takes", "is_section_of", "has_sections", "has_ta"];
            db.define_asr("asr", "Student", &path).unwrap();
            asr = true;
            since_write.clear();
        }
        // Creates until there is something to link.
        let ready = [&students, &faculty, &tas, &courses, &sections]
            .iter()
            .all(|pool| pool.len() >= 2);
        // A refused write, or a link that is there already, changes
        // nothing and keeps the cache: only a generation bump counts.
        let generation = db.generation();
        match rng.gen_range(0..if ready { 16 } else { 2 }) {
            0 | 1 => {
                let name = Value::from(format!("o{step}"));
                let age = Value::Int(rng.gen_range(18..70));
                let attrs = vec![("name", name.clone()), ("age", age)];
                match rng.gen_range(0..7) {
                    0 => persons.push(db.create("Person", attrs).unwrap()),
                    1 => students.push(db.create("Student", attrs).unwrap()),
                    2 => {
                        let salary = Value::Real(rng.gen_range(20_000.0..90_000.0));
                        let attrs = [attrs, vec![("salary", salary)]].concat();
                        faculty.push(db.create("Faculty", attrs).unwrap());
                    }
                    3 => tas.push(db.create("TA", attrs).unwrap()),
                    4 => courses.push(db.create("Course", vec![("title", name)]).unwrap()),
                    _ => sections.push(db.create("Section", vec![("number", name)]).unwrap()),
                }
            }
            2 => {
                let f = pick(&mut rng, &faculty);
                let salary = Value::Real(rng.gen_range(20_000.0..90_000.0));
                db.set_attr(f, "salary", salary).unwrap();
            }
            3 => {
                let all = [&persons[..], &students, &tas, &faculty].concat();
                let p = pick(&mut rng, &all);
                db.set_attr(p, "age", Value::Int(rng.gen_range(18..70)))
                    .unwrap();
            }
            4 | 5 => {
                let (s, sec) = (pick(&mut rng, &students), pick(&mut rng, &sections));
                db.link(s, "takes", sec).unwrap();
            }
            6 | 7 => {
                // Refused when the section already has a course.
                let (sec, c) = (pick(&mut rng, &sections), pick(&mut rng, &courses));
                let _ = db.link(sec, "is_section_of", c);
            }
            8 | 9 => {
                // Refused when either to-one side is taken.
                let (sec, ta) = (pick(&mut rng, &sections), pick(&mut rng, &tas));
                let _ = db.link(sec, "has_ta", ta);
            }
            10 => {
                let (sec, f) = (pick(&mut rng, &sections), pick(&mut rng, &faculty));
                let _ = db.link(sec, "is_taught_by", f);
            }
            11 => {
                let sec = pick(&mut rng, &sections);
                let rel = ["is_section_of", "taken_by", "has_ta"][rng.gen_range(0..3usize)];
                if let Some(&to) = db.linked(sec, rel).unwrap().first() {
                    assert!(db.unlink(sec, rel, to).unwrap());
                }
            }
            12 => {
                let pool: &mut Vec<Oid> = match rng.gen_range(0..3) {
                    0 => &mut students,
                    1 => &mut sections,
                    _ => &mut faculty,
                };
                let victim = pool.swap_remove(rng.gen_range(0..pool.len()));
                db.delete(victim).unwrap();
            }
            _ => {}
        }
        if db.generation() != generation {
            since_write.clear();
        }
        if !rng.gen_bool(0.4) {
            continue;
        }
        let q = match rng.gen_range(0..queries.len() + 1) {
            i if i < queries.len() => &queries[i],
            _ if asr => &asr_read,
            _ => &queries[2],
        };
        let (answers, _) = execute(&db, q).unwrap();
        since_write.push(q);
        let what = format!("seed {seed}, step {step}, after `{q}`");
        if let Some((edb, rows)) = pinned.take() {
            assert_eq!(contents(&edb), rows, "{what}: a pinned EDB changed");
        }
        let live = db.edb_pinned();
        let back = open(&dir);
        let mut back_answers = None;
        for q in &since_write {
            back_answers = Some(execute(&back, q).unwrap().0);
        }
        let back_answers = back_answers.expect("this read at least");
        assert!(back_answers.rows().eq(answers.rows()), "{what}: answers");
        let back_edb = back.edb_pinned();
        let names = |edb: &EdbDatabase| {
            let mut names: Vec<_> = edb.iter().map(|(p, _)| p.name()).collect();
            names.sort_unstable();
            names
        };
        assert_eq!(names(&live), names(&back_edb), "{what}: relations");
        for (pred, rel) in live.iter() {
            let fresh = back_edb.relation(pred).unwrap();
            assert!(rel.rows().eq(fresh.rows()), "{what}: rows of {pred}");
        }
        reads += 1;
        let rows = |name: &str| live.relation(&name.into()).map_or(0, |r| r.len());
        asr_rows = asr_rows.max(rows("asr"));
        method_rows = method_rows.max(rows("taxes_withheld"));
        // Every other read holds its EDB across the next writes.
        if rng.gen_bool(0.5) {
            pinned = Some((Arc::clone(&live), contents(&live)));
        }
    }
    // The script read often, through the method and the ASR.
    assert!(reads > 60 && asr_rows > 0 && method_rows > 0, "seed {seed}");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_read_sees_the_edb_a_reopened_base_builds() {
    for seed in [1, 2, 3] {
        drive(seed, 240);
    }
}

/// A `Student` create rebuilds the person and student relations and
/// shares the faculty one, with the index a read built on it.
#[test]
fn a_student_create_leaves_the_faculty_index_in_place() {
    let dir = test_dir("faculty_index");
    let mut db = open(&dir);
    for i in 0..5 {
        let name = Value::from(format!("f{i}"));
        db.create("Faculty", vec![("name", name)]).unwrap();
    }
    let before = db.edb_pinned();
    let faculty = before.relation(&"faculty".into()).unwrap();
    assert_eq!(
        faculty.hash_probe(1, &Const::Str("f3".into())),
        Some(&[3][..])
    );
    let student = before.relation(&"student".into()).unwrap();
    db.create("Student", vec![("name", "s".into())]).unwrap();
    let after = db.edb_pinned();
    let rel = |name: &str| after.relation(&name.into()).unwrap();
    assert!(std::ptr::eq(rel("faculty"), faculty));
    assert!(!std::ptr::eq(rel("student"), student));
    assert_eq!((rel("student").len(), student.len()), (1, 0));
    let scope = obs::Scope::enter();
    assert_eq!(
        rel("faculty").hash_probe(1, &Const::Str("f3".into())),
        Some(&[3][..])
    );
    assert_eq!(scope.finish().counter(Counter::EdbIndexBuilds), 0);
    drop((before, after, db));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The two writes of a `write_read` cycle — a `Student` create and a
/// `takes` link — rebuild the relations they change and nothing else:
/// the student's class chain and its auto-created address, with their
/// extents, the link and its inverse, the access support relation over
/// `takes`, and the method relation every write resets.
#[test]
fn a_create_and_a_link_rebuild_only_what_they_change() {
    let mut data = UniversityConfig::default().build().unwrap();
    let path = ["takes", "is_section_of", "has_sections", "has_ta"];
    data.db.define_asr("asr", "Student", &path).unwrap();
    let before = data.db.edb_pinned();
    let attrs = vec![("name", Value::from("new")), ("age", Value::Int(20))];
    let student = data.db.create("Student", attrs).unwrap();
    data.db.link(student, "takes", data.sections[0]).unwrap();
    let after = data.db.edb_pinned();
    let mut rebuilt: Vec<&str> = (after.iter())
        .filter(|(pred, rel)| {
            !before
                .relation(pred)
                .is_some_and(|old| std::ptr::eq(old, *rel))
        })
        .map(|(pred, _)| pred.name())
        .collect();
    rebuilt.sort_unstable();
    let extents = ["address__extent", "person__extent", "student__extent"];
    let rows = ["address", "asr", "person", "student", "taken_by", "takes"];
    let mut expected = [&extents[..], &rows, &["taxes_withheld"]].concat();
    expected.sort_unstable();
    assert_eq!(rebuilt, expected);
    assert_eq!(after.iter().count(), before.iter().count());
}
