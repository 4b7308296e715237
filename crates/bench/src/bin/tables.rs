//! The experiment-table harness: regenerates every table of
//! EXPERIMENTS.md (one section per paper artifact — Figure 2's
//! complexity claims and Applications 1–4) with measured numbers.
//!
//! ```text
//! cargo run --release -p sqo-bench --bin tables [--quick]
//! cargo run --release -p sqo-bench --bin tables -- --serve           # serve/* and step3/a3 rows only
//! cargo run --release -p sqo-bench --bin tables -- --store-recovery  # store/* row only
//! cargo run --release -p sqo-bench --bin tables -- --edb             # x1/* rows only
//! ```
//!
//! Besides the human-readable tables, a full run writes
//! `BENCH_pipeline.json` at the repo root: a flat `{"name": median_ns}`
//! map of exactly the rows it measured — the e1/f2 pipeline benchmarks;
//! the e3 indexed rewrite with its reference paths (`_baseline`: the
//! original query on the scan-only executor, `_seed`: the rewrite on the
//! scan-only executor) and the `speedup/…` ratio derived over the
//! baseline; the in-process warm hit (`serve/warm_hit`, `_obs_ns`), the
//! in-process miss (`serve/cold_miss_ns`) and the written reply of a
//! miss (`serve/cold_reply_ns`); Step 3 of the served key-join template
//! on a cold context (`step3/a3_search_ns`);
//! `store/recover_1m_objects`; and the `x1/*` rows: what the Datalog
//! image of the served object base costs to rebuild (ms), to index (ms,
//! every declared index built once) and to hold (bytes per tuple), and
//! what executing Application 2's chosen plan on it costs (µs).
//! `scripts/check_bench_manifest.py` knows every one of these names and
//! rejects any other. Sections F2.3, F2.4 and ABL are printed only: the
//! linearity of Steps 2 and 4 and the cost of IC derivation are shapes
//! to read, not rows to gate. What a request costs over a socket is
//! measured by `benchmark/`, not here.

use sqo_bench::{
    asr_q1_scenario, asr_scenario, contradiction_scenario, indexed_rewrite_scenario,
    key_join_scenario, optimizer_with_n_ics, probe_every_index, scope_reduction_scenario,
    served_university_base, synthetic_schema, Scenario,
};
use sqo_core::{CacheOutcome, CompileOptions, PlanCache, SemanticOptimizer};
use sqo_datalog::parser::{parse_constraint, parse_program, parse_query, Statement};
use sqo_datalog::residue::ResidueSet;
use sqo_datalog::search::{self, SearchConfig};
use sqo_datalog::transform::TransformContext;
use sqo_datalog::Query;
use sqo_objdb::{
    choose_best, execute, execute_with, register_university_methods, ExecOptions, Value,
};
use sqo_obs as obs;
use sqo_translate::translate_schema;
use std::collections::BTreeMap;
use std::time::Instant;

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median wall-clock time of `reps` runs of `f`, in nanoseconds (one
/// unrecorded warmup run first).
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    median((0..reps).map(|_| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e9
    }))
}

/// Run both queries of a scenario once, untimed: the first execution
/// after a load pays for the EDB build, and each query's first for the
/// indexes it is the first to probe.
fn warm(s: &Scenario) {
    for q in [&s.original, &s.optimized] {
        execute(&s.db, q).unwrap();
    }
}

fn median(samples: impl Iterator<Item = f64>) -> f64 {
    let mut samples: Vec<f64> = samples.collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median time of one search on a context no search has used yet: every
/// sample gets a fresh copy of `ctx` (built outside the timed region), so
/// the search pays for building its residue-match structures, which the
/// looped `f2` rows (warm after their unrecorded first run) never do.
fn median_cold_context_ns(
    reps: usize,
    q: &Query,
    ctx: &TransformContext,
    cfg: &SearchConfig,
) -> f64 {
    median((0..reps).map(|_| {
        let fresh = TransformContext::new(
            ctx.residues.clone(),
            ctx.chase.views.clone(),
            ctx.chase.functional.clone(),
        );
        let t0 = Instant::now();
        std::hint::black_box(search::optimize(q, &fresh, cfg));
        t0.elapsed().as_secs_f64() * 1e9
    }))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let k = if quick { 1 } else { 2 };

    // Standalone store-recovery mode: measure just the durable-store
    // cold open and merge its row into the committed manifest, so the
    // multi-second recovery number can be refreshed without re-running
    // the full table sweep.
    if std::env::args().any(|a| a == "--store-recovery") {
        let (n, ns) = bench_store_recovery(quick);
        if quick {
            println!("(quick mode — {n}-object recovery not persisted)");
            return;
        }
        let row = ("store/recover_1m_objects".to_string(), ns);
        merge_into_manifest([row].into(), "store/recover_1m_objects");
        return;
    }

    // Standalone serving mode: re-measure just the in-process warm hit,
    // a miss and its reply, and a joining template's search, and merge
    // their rows into the committed manifest.
    if std::env::args().any(|a| a == "--serve") {
        let mut rows = BTreeMap::new();
        bench_warm_hit(&mut rows);
        bench_cold_miss(&mut rows);
        bench_cold_reply(&mut rows);
        bench_a3_search(&mut rows);
        if quick {
            println!("(quick mode — serve/* and step3/* rows not persisted)");
            return;
        }
        merge_into_manifest(rows, "serve/* and step3/* rows");
        return;
    }

    // Standalone EDB mode: re-measure just the rebuild and footprint of
    // the served base's EDB, and Application 2's execution on it, and
    // merge the rows into the committed manifest.
    if std::env::args().any(|a| a == "--edb") {
        let mut rows = BTreeMap::new();
        bench_edb_storage(quick, &mut rows);
        if quick {
            println!("(quick mode — x1/* rows not persisted)");
            return;
        }
        merge_into_manifest(rows, "x1/* rows");
        return;
    }

    println!("# Experiment tables (measured on this machine)\n");

    // ---------------- F2: pipeline complexity ----------------
    println!("## F2.1 — Step 1 (schema translation) vs schema size");
    println!("{:>10} {:>14} {:>16}", "classes", "relations", "time (ms)");
    for n in [8, 16, 32, 64, 128] {
        let schema = synthetic_schema(n);
        let (cat, ms) = time_ms(|| translate_schema(&schema));
        println!("{:>10} {:>14} {:>16.3}", n, cat.relations.len(), ms);
    }

    println!("\n## F2.2 — Step 3 (SQO) vs number of applicable ICs");
    println!(
        "{:>6} {:>10} {:>14} {:>16}",
        "ICs", "residues", "equivalents", "time (ms)"
    );
    for n in [0usize, 2, 4, 8, 12, 32, 64] {
        let (mut opt, q) = optimizer_with_n_ics(n);
        let residues = opt.residue_count();
        let (report, ms) = time_ms(|| opt.optimize(q).unwrap());
        println!(
            "{:>6} {:>10} {:>14} {:>16.2}",
            n,
            residues,
            report.equivalents().len(),
            ms
        );
    }

    steps_2_and_4_tables(quick);

    // ---------------- A1: contradiction detection ----------------
    println!("\n## A1 — Contradiction detection (Application 1)");
    println!(
        "{:>10} {:>18} {:>20} {:>14}",
        "students", "SQO detect (ms)", "evaluate-anyway (ms)", "tuples scanned"
    );
    for students in [100, 400, 1600 * k] {
        let (mut opt, oql, db) = contradiction_scenario(students);
        let (report, detect_ms) = time_ms(|| opt.optimize(oql).unwrap());
        assert!(report.is_contradiction());
        let plain = SemanticOptimizer::university();
        let t = plain.translate(&sqo_oql::parse_oql(oql).unwrap()).unwrap();
        let _ = execute(&db, &t.query).unwrap(); // warm cache
        let ((rows, cost), eval_ms) = time_ms(|| execute(&db, &t.query).unwrap());
        assert!(rows.is_empty());
        println!(
            "{:>10} {:>18.2} {:>20.2} {:>14}",
            students, detect_ms, eval_ms, cost.tuples_examined
        );
    }

    // ---------------- A2: scope reduction ----------------
    println!("\n## A2 — Access scope reduction (Application 2)");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "f", "orig fetch", "opt fetch", "orig ms", "opt ms", "answers"
    );
    for frac in [0.1, 0.3, 0.6, 0.9] {
        let s = scope_reduction_scenario(2000 * k, frac);
        warm(&s);
        let ((r1, c1), ms1) = time_ms(|| execute(&s.db, &s.original).unwrap());
        let ((r2, c2), ms2) = time_ms(|| execute(&s.db, &s.optimized).unwrap());
        assert_eq!(r1.len(), r2.len());
        println!(
            "{:>8} {:>14} {:>14} {:>14.2} {:>14.2} {:>10}",
            frac,
            c1.object_fetches,
            c2.object_fetches,
            ms1,
            ms2,
            r1.len()
        );
    }

    // ---------------- A3: key join reduction ----------------
    println!("\n## A3 — Key-based join reduction (Application 3)");
    println!(
        "{:>10} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "students", "orig fetch", "opt fetch", "orig ms", "opt ms", "answers"
    );
    for students in [40, 80, 160 * k] {
        let s = key_join_scenario(students);
        warm(&s);
        let ((r1, c1), ms1) = time_ms(|| execute(&s.db, &s.original).unwrap());
        let ((r2, c2), ms2) = time_ms(|| execute(&s.db, &s.optimized).unwrap());
        assert_eq!(r1.len(), r2.len());
        println!(
            "{:>10} {:>14} {:>14} {:>12.2} {:>12.2} {:>10}",
            students,
            c1.object_fetches,
            c2.object_fetches,
            ms1,
            ms2,
            r1.len()
        );
    }

    // ---------------- A4: access support relations ----------------
    println!("\n## A4 — ASR join elimination (Application 4, query Q)");
    println!(
        "{:>16} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "scale", "chain rel", "asr probes", "orig ms", "opt ms", "answers"
    );
    for (students, courses) in [(200, 20), (800, 60), (3200 * k, 200 * k)] {
        let s = asr_scenario(students, courses);
        warm(&s);
        let ((r1, c1), ms1) = time_ms(|| execute(&s.db, &s.original).unwrap());
        let ((r2, c2), ms2) = time_ms(|| execute(&s.db, &s.optimized).unwrap());
        assert_eq!(r1.len(), r2.len());
        println!(
            "{:>16} {:>12} {:>12} {:>12.2} {:>12.2} {:>10}",
            format!("s={students},c={courses}"),
            c1.rel_traversals,
            c2.view_probes,
            ms1,
            ms2,
            r1.len()
        );
    }

    // ---------------- A4-Q1: join introduction ----------------
    println!("\n## A4-Q1 — ASR via join introduction (Application 4, query Q1)");
    println!(
        "{:>16} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "scale", "chain rel", "asr+ta", "orig ms", "opt ms", "answers"
    );
    for (students, courses) in [(200, 20), (800, 60)] {
        let s = asr_q1_scenario(students, courses);
        warm(&s);
        let ((r1, c1), ms1) = time_ms(|| execute(&s.db, &s.original).unwrap());
        let ((r2, c2), ms2) = time_ms(|| execute(&s.db, &s.optimized).unwrap());
        assert_eq!(r1.len(), r2.len());
        println!(
            "{:>16} {:>12} {:>12} {:>12.2} {:>12.2} {:>10}",
            format!("s={students},c={courses}"),
            c1.rel_traversals,
            c2.view_probes + c2.rel_traversals,
            ms1,
            ms2,
            r1.len()
        );
    }

    // ---------------- E3: indexed rewrite ----------------
    println!("\n## E3 — Index-reaching rewrite (semantic + physical)");
    println!(
        "{:>10} {:>14} {:>16} {:>12} {:>12} {:>10}",
        "faculty", "orig examined", "opt range probes", "orig ms", "opt ms", "answers"
    );
    for faculty in [2000, 10_000 * k] {
        let s = indexed_rewrite_scenario(faculty);
        warm(&s);
        let ((r1, c1), ms1) = time_ms(|| execute(&s.db, &s.original).unwrap());
        let ((r2, c2), ms2) = time_ms(|| execute(&s.db, &s.optimized).unwrap());
        assert_eq!(r1.len(), r2.len());
        // The original is a probe of `rank`'s hash index, not a scan; the
        // index-aware cost model must still pick the range-probing rewrite.
        assert_eq!((c1.index_probes, c1.scans), (1, 0), "{c1}");
        let (best, costs) = choose_best(&s.db, &[s.original.clone(), s.optimized.clone()]);
        assert_eq!(best, 1, "cost model must pick the rewrite: {costs:?}");
        println!(
            "{:>10} {:>14} {:>16} {:>12.3} {:>12.3} {:>10}",
            faculty,
            c1.tuples_examined,
            c2.range_probes,
            ms1,
            ms2,
            r1.len()
        );
    }

    ablation_table(quick);

    // ---------------- BENCH_pipeline.json ----------------
    bench_pipeline(quick);

    println!("\n(done — see EXPERIMENTS.md for the expectations each table is checked against)");
}

/// A path query of `hops` relationship hops over the university schema:
/// `takes`, then alternating section → course → section.
fn query_of_hops(hops: usize) -> String {
    let mut from = String::from("x0 in Student\n x1 in x0.takes");
    for i in 1..hops {
        let rel = if i % 2 == 1 {
            "is_section_of"
        } else {
            "has_sections"
        };
        from.push_str(&format!("\n x{} in x{i}.{rel}", i + 1));
    }
    format!("select x0.name from {from} where x0.age > 20")
}

/// F2.3 and F2.4 — Section 4.1's other two claims: Step 2 (query
/// translation) is linear in the query's size and Step 4 (change
/// mapping) in the delta's. Printed, not recorded.
fn steps_2_and_4_tables(quick: bool) {
    let reps = if quick { 25 } else { 201 };
    let opt = SemanticOptimizer::university();

    println!("\n## F2.3 — Step 2 (query translation) vs path length");
    println!("{:>6} {:>10} {:>12}", "hops", "literals", "time (us)");
    for hops in [1usize, 3, 5, 9, 13] {
        let parsed = sqo_oql::parse_oql(&query_of_hops(hops)).unwrap();
        let literals = opt.translate(&parsed).unwrap().query.body.len();
        let ns = median_ns(reps, || {
            std::hint::black_box(opt.translate(&parsed).unwrap());
        });
        println!("{hops:>6} {literals:>10} {:>12.2}", ns / 1e3);
    }

    println!("\n## F2.4 — Step 4 (change mapping) vs delta size");
    println!("{:>14} {:>12}", "added literals", "time (us)");
    let parsed = sqo_oql::parse_oql("select x.name from x in Faculty").unwrap();
    let t = opt.translate(&parsed).unwrap();
    let name_is_not = |i| {
        use sqo_datalog::{CmpOp, Literal, Term};
        Literal::cmp(Term::var("Name"), CmpOp::Ne, Term::str(format!("x{i}")))
    };
    for n in [1usize, 4, 8] {
        let delta = sqo_core::Delta {
            added: (0..n).map(name_is_not).collect(),
            removed: vec![],
        };
        let ns = median_ns(reps, || {
            let mapped = sqo_translate::apply_delta(&t.normalized, &t.map, opt.catalog(), &delta);
            std::hint::black_box(mapped.unwrap());
        });
        println!("{n:>14} {:>12.2}", ns / 1e3);
    }
}

/// ABL — what the one remaining design knob costs and finds, so the
/// decision to keep or drop it (ROADMAP item 4) has a number: IC
/// derivation (strengthening + contrapositives; scope reduction only
/// exists with it). Printed, not recorded.
fn ablation_table(quick: bool) {
    let reps = if quick { 5 } else { 21 };
    println!("\n## ABL — Design knobs (one Step-3 optimization each)");
    println!(
        "{:>16} {:>16} {:>12} {:>12}",
        "knob", "setting", "equivalents", "time (ms)"
    );
    for (setting, derive) in [("on", true), ("off", false)] {
        let mut opt = SemanticOptimizer::university();
        opt.set_compile_options(CompileOptions {
            derive_strengthened: derive,
            derive_contrapositives: derive,
        });
        opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
            .unwrap();
        opt.residue_count(); // compile outside the measured loop
        let oql = "select x.name from x in Person where x.age < 30";
        let equivalents = opt.optimize(oql).unwrap().equivalents().len();
        let ns = median_ns(reps, || {
            std::hint::black_box(opt.optimize(oql).unwrap());
        });
        println!(
            "{:>16} {setting:>16} {equivalents:>12} {:>12.3}",
            "ic_derivation",
            ns / 1e6
        );
    }
}

const MANIFEST_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");

/// Merge freshly measured `rows` into the committed manifest, leaving
/// every other row as recorded: how the standalone modes refresh their
/// rows without the full table sweep. None of their rows feeds a
/// `speedup/…` ratio, so nothing is re-derived.
fn merge_into_manifest(rows: BTreeMap<String, f64>, what: &str) {
    let mut bench = read_manifest(MANIFEST_PATH);
    bench.extend(rows);
    write_manifest(MANIFEST_PATH, &bench);
    println!("(updated {what} in {MANIFEST_PATH})");
}

/// Parse the flat `{"name": number}` manifest (line-based: the file is
/// written by [`write_manifest`], one entry per line).
fn read_manifest(path: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let Some((k, v)) = line.trim().trim_end_matches(',').split_once(':') else {
                continue;
            };
            let k = k.trim().trim_matches('"');
            if k.is_empty() {
                continue;
            }
            if let Ok(v) = v.trim().parse::<f64>() {
                out.insert(k.to_string(), v);
            }
        }
    }
    out
}

/// Write the manifest as deterministic one-entry-per-line JSON.
fn write_manifest(path: &str, bench: &BTreeMap<String, f64>) {
    let mut json = String::from("{\n");
    for (i, (name, v)) in bench.iter().enumerate() {
        let sep = if i + 1 == bench.len() { "" } else { "," };
        // Sub-100 values (speedup ratios, the x1 rows) need more digits
        // than nanosecond medians.
        let rendered = if *v < 100.0 {
            format!("{v:.4}")
        } else {
            format!("{v:.1}")
        };
        json.push_str(&format!("  \"{name}\": {rendered}{sep}\n"));
    }
    json.push_str("}\n");
    std::fs::write(path, json).expect("write BENCH_pipeline.json");
}

/// X1: what the EDB of the served university base costs to load, to
/// refresh and to hold, recorded into `bench` —
/// [`served_university_base`] × 4 and × 20, the benchmark's 6 000- and
/// 30 000-object bases:
///
/// * `x1/edb_build_ms/{6000,30000}` — median time of a full load: every
///   relation built, as by the first read of a base opened from its
///   store, or the first after a catalog change (here, registering the
///   base's method again). It builds no index;
/// * `x1/edb_index_all_ms/{6000,30000}` — median time of building every
///   declared index of that fresh EDB once ([`probe_every_index`]): the
///   most the reads after a load can pay between them. Load plus this is
///   the whole load, which is what the manifest check holds linear;
/// * `x1/edb_refresh_ms/6000` — median time of the refresh the first
///   read after one `Student` create and one `takes` link pays, the two
///   writes of a `write_read` cycle: the relations those writes change,
///   rebuilt, and every other one shared;
/// * `x1/edb_bytes_per_tuple/30000` — `heap_bytes() / total_tuples()`
///   with every declared index built, which is deterministic;
/// * `x1/a2_execute_us/30000` — see [`a2_execute_us`].
///
/// Also prints bytes per tuple with no index built, and the time per
/// tuple of a filtered scan (the scan-only executor on the 8 400-tuple
/// `student.name` selection of the A4 and A3 templates at × 20, which the
/// indexed executor answers with one probe).
fn bench_edb_storage(quick: bool, bench: &mut BTreeMap<String, f64>) {
    println!("\n## X1 — EDB load, refresh and footprint (served university base)");
    println!(
        "{:>8} {:>8} {:>10} {:>16} {:>12} {:>14} {:>13} {:>16}",
        "objects",
        "tuples",
        "load (ms)",
        "all indexes (ms)",
        "refresh (ms)",
        "B/tuple, bare",
        "B/tuple, all",
        "scan (ns/tuple)"
    );
    let reps = if quick { 3 } else { 15 };
    for mult in [4, 20] {
        let mut data = served_university_base(mult);
        let objects = 1500 * mult;
        data.db.edb_pinned();
        // Each rep times a refresh (on the 6 000-object base only: the
        // 30 000-object one goes on to A2, whose answers a created student
        // would join) and a full load side by side, on one head, so that
        // the box's drift moves both.
        let samples: Vec<[f64; 3]> = (0..reps)
            .map(|i| {
                let refresh_ms = if mult == 4 {
                    let tag = format!("refresh{i}");
                    let attrs = vec![
                        ("name", Value::from(tag.as_str())),
                        ("age", Value::Int(20)),
                        ("student_id", tag.into()),
                    ];
                    let student = data.db.create("Student", attrs).unwrap();
                    let section = data.sections[i % data.sections.len()];
                    data.db.link(student, "takes", section).unwrap();
                    time_ms(|| data.db.edb_pinned()).1
                } else {
                    f64::NAN
                };
                register_university_methods(&mut data.db).unwrap();
                let (edb, build_ms) = time_ms(|| data.db.edb_pinned());
                [build_ms, time_ms(|| probe_every_index(&edb)).1, refresh_ms]
            })
            .collect();
        let [build_ms, index_ms, refresh_ms] =
            [0, 1, 2].map(|k| median(samples.iter().map(|s| s[k])));
        let refresh_ms = (mult == 4).then_some(refresh_ms);
        register_university_methods(&mut data.db).unwrap();
        let edb = data.db.edb_pinned();
        let tuples = edb.total_tuples() as f64;
        let bare = edb.heap_bytes() as f64 / tuples;
        probe_every_index(&edb);
        let per_tuple = edb.heap_bytes() as f64 / tuples;
        // student(X0, "student7", X2, …), every tuple looked at.
        let arity = edb.relation(&"student".into()).unwrap().arity().unwrap();
        let mut args: Vec<String> = (0..arity).map(|i| format!("X{i}")).collect();
        args[1] = "\"student7\"".to_string();
        let scan = parse_query(&format!("Q(X0) <- student({})", args.join(", "))).unwrap();
        let scan_only = sqo_datalog::eval::EvalOptions::scan_only();
        let run = || sqo_datalog::eval::answer_query_with(&edb, &scan, &scan_only).unwrap();
        let examined = run().1.tuples_examined as f64;
        let scan_ns = median_ns(reps * 7, || {
            std::hint::black_box(run());
        }) / examined;
        let refresh = refresh_ms.map_or("-".to_string(), |ms| format!("{ms:.2}"));
        println!(
            "{objects:>8} {tuples:>8} {build_ms:>10.2} {index_ms:>16.2} {refresh:>12} \
             {bare:>14.1} {per_tuple:>13.1} {scan_ns:>16.2}"
        );
        bench.insert(format!("x1/edb_build_ms/{objects}"), build_ms);
        bench.insert(format!("x1/edb_index_all_ms/{objects}"), index_ms);
        if let Some(ms) = refresh_ms {
            bench.insert("x1/edb_refresh_ms/6000".to_string(), ms);
        }
        if mult == 20 {
            bench.insert("x1/edb_bytes_per_tuple/30000".to_string(), per_tuple);
            bench.insert(
                "x1/a2_execute_us/30000".to_string(),
                a2_execute_us(&data.db, quick),
            );
        }
    }
}

/// `x1/a2_execute_us/30000`: what a served Application 2 request spends
/// executing, on the 30 000-object base — `execute` of the plan
/// `best_plan` chooses for `select x.name from x in Person where x.age <
/// 25` under IC4 (a range probe on `age`, about 4 000 names), the answers
/// dropped inside the timing. Median of 301 runs (31 in quick mode) after
/// one that builds the indexes the plan probes, in µs.
fn a2_execute_us(db: &sqo_objdb::ObjectDb, quick: bool) -> f64 {
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let report = opt
        .optimize("select x.name from x in Person where x.age < 25")
        .unwrap();
    let (_, plan, _) = report.best_plan(db).expect("A2 is satisfiable");
    let answers = execute(db, &plan.datalog).unwrap().0.len();
    let us = median_ns(if quick { 31 } else { 301 }, || {
        drop(std::hint::black_box(execute(db, &plan.datalog).unwrap()));
    }) / 1e3;
    println!(
        "A2 execute, {answers} answers: {us:.1} µs  [{}]",
        plan.datalog
    );
    us
}

/// What a served warm hit runs in process, and what `obs` costs it: a
/// query the plan cache has finished, asked again verbatim —
/// `optimize_cached(text)`, then `explain_json()`, the report as the
/// reply embeds it.
///
/// * `serve/warm_hit` — `optimize_cached` on the text (the instance is
///   found before anything is parsed);
/// * `serve/warm_hit_obs_ns` — the whole hit, rendering included, with
///   `obs` recording on minus off.
///
/// On and off are measured back to back in every round and compared per
/// round, so the difference cancels whatever performance mode the
/// machine is in; the median over the rounds is printed in ns and as a
/// percentage. `scripts/check_bench_manifest.py` gates the first row;
/// the percentage is stated, not gated — its denominator is the hit
/// itself. Runs at full strength in quick mode too: a round is
/// milliseconds.
fn bench_warm_hit(bench: &mut BTreeMap<String, f64>) {
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let prep = opt.prepare();
    let text = "select x.name from x in Person where x.age < 25";
    let cache = PlanCache::new();
    // A miss, a hit that finishes the text's instance, and from here on
    // instance hits.
    for _ in 0..2 {
        prep.optimize_cached(&cache, text).unwrap();
    }
    let hit = prep.optimize_cached(&cache, text).unwrap().0;
    assert_eq!(hit.stats.counter(obs::Counter::TranslateQueries), 0);
    assert_eq!(hit.stats.counter(obs::Counter::PlanCacheInstanceHits), 1);

    let served_hit = || {
        let (report, _) = prep.optimize_cached(&cache, text).unwrap();
        std::hint::black_box(report.explain_json());
    };
    let (mut on_ns, mut off_ns, mut diffs) = (f64::INFINITY, f64::INFINITY, Vec::new());
    let mut hit_ns = f64::INFINITY;
    for _round in 0..7 {
        let on = median_ns(501, served_hit);
        obs::set_enabled(false);
        let off = median_ns(501, served_hit);
        obs::set_enabled(true);
        diffs.push(on - off);
        on_ns = on_ns.min(on);
        off_ns = off_ns.min(off);
        hit_ns = hit_ns.min(median_ns(501, || {
            std::hint::black_box(prep.optimize_cached(&cache, text).unwrap());
        }));
    }
    let obs_ns = median(diffs.into_iter());
    println!(
        "\nserved warm hit (optimize_cached(text) + explain_json): \
         {:.2} us with obs on, {:.2} us off; obs costs {obs_ns:+.0} ns = {:+.1}% \
         (median paired difference over 7 rounds)",
        on_ns / 1e3,
        off_ns / 1e3,
        obs_ns / off_ns * 100.0
    );
    println!("optimize only: {hit_ns:.0} ns (serve/warm_hit)");
    bench.insert("serve/warm_hit".to_string(), hit_ns);
    // The manifest holds positive numbers only; a difference lost in the
    // noise is recorded as the smallest of them.
    bench.insert("serve/warm_hit_obs_ns".to_string(), obs_ns.max(1.0));
}

/// What a miss costs in process, reply aside: `serve/cold_miss_ns` is
/// `optimize_cached` of a `cold_search` rebind (32 range ICs on
/// `faculty.age`; each request's constant sits on another threshold than
/// the last one's, so its parameter signature differs) — the parse, Step
/// 2, the search, Step 4 and the cache store — the least of 7 medians of
/// 101 requests, each median after one warm-up request.
/// `scripts/check_bench_manifest.py` gates it.
fn bench_cold_miss(bench: &mut BTreeMap<String, f64>) {
    let (opt, _) = optimizer_with_n_ics(32);
    let prep = opt.prepare();
    let cache = PlanCache::new();
    // Thresholds 10..=41, seven apart from one request to the next.
    let texts: Vec<String> = (0..32)
        .map(|k| {
            format!(
                "select x.name from x in Faculty where x.age > {}",
                10 + k * 7 % 32
            )
        })
        .collect();
    let mut next = 0;
    let mut rebind = || {
        let (report, disposition) = prep.optimize_cached(&cache, &texts[next % 32]).unwrap();
        assert_ne!(disposition, CacheOutcome::Hit);
        std::hint::black_box(report);
        next += 1;
    };
    let ns = (0..7)
        .map(|_| median_ns(101, &mut rebind))
        .fold(f64::INFINITY, f64::min);
    println!("cold miss (optimize_cached of a 32-IC rebind): {ns:.0} ns (serve/cold_miss_ns, min of 7 medians)");
    bench.insert("serve/cold_miss_ns".to_string(), ns);
}

/// What a miss's reply costs to write: `serve/cold_reply_ns` is
/// `write_json` of the report a `cold_search` miss serves (32 range ICs
/// on `faculty.age`, the constant on one of their thresholds) into a
/// fresh buffer: the least of 7 medians of 101 writes, each after one
/// warm-up write, as the warm-hit rows take theirs. The report has no
/// plan-cache instance behind it, so every write renders the whole body,
/// as a miss or rebind does. `scripts/check_bench_manifest.py` gates it.
fn bench_cold_reply(bench: &mut BTreeMap<String, f64>) {
    let (mut opt, _) = optimizer_with_n_ics(32);
    let report = opt
        .optimize("select x.name from x in Faculty where x.age > 25")
        .unwrap();
    let bytes = report.explain_json().len();
    let write = || {
        let mut line = String::new();
        report.write_json(&mut line);
        std::hint::black_box(line);
    };
    let ns = (0..7)
        .map(|_| median_ns(101, write))
        .fold(f64::INFINITY, f64::min);
    println!(
        "cold reply (write_json of a 32-IC miss: {} equivalents, {bytes} B): \
         {ns:.0} ns (serve/cold_reply_ns, min of 7 medians)",
        report.equivalents().len()
    );
    bench.insert("serve/cold_reply_ns".to_string(), ns);
}

/// The constraint and view text `benchmark/`'s `serve_exec` workload
/// prepares its session with (a copy: the benchmark is a workspace of
/// its own).
const EXEC_ICS: &str = "\
ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).
ic IC3: Value > 3000 <- taxes_withheld(X, 0.1, Value), faculty(X, N, A, S, R, Ad).
ic IC_PROF: Salary >= 90000 <- faculty(X, N, Age, Salary, Rank, Ad), Rank = \"professor\".
asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W).";

/// `serve_exec`'s Application 3 template (the key join), one constant.
const A3_OQL: &str = "select list(x.student_id, t.employee_id) from x in Student y in x.takes \
                      z in y.is_taught_by t in TA v in t.takes w in v.is_taught_by \
                      where z.name = w.name and x.name = \"student0\"";

/// What Step 3 costs on a template whose join eliminations run the
/// chase: `step3/a3_search_ns` is `search::optimize` of `serve_exec`'s
/// Application 3 template under its session's constraint text, each
/// search on a context no search has used yet (as a session's first
/// miss of the template is), the least of 7 medians of 21 searches.
/// `scripts/check_bench_manifest.py` gates it.
fn bench_a3_search(bench: &mut BTreeMap<String, f64>) {
    let mut opt = SemanticOptimizer::university();
    for statement in parse_program(EXEC_ICS).expect("the constraint text parses") {
        match statement {
            Statement::Constraint(ic) => opt.add_constraint(ic),
            Statement::Rule(view) => opt.add_view(view),
            other => panic!("unexpected statement {other:?}"),
        }
    }
    let q = opt
        .optimize(A3_OQL)
        .expect("the template optimizes")
        .datalog;
    let cfg = SearchConfig::default();
    let ctx = opt.compile();
    let ns = (0..7)
        .map(|_| median_cold_context_ns(21, &q, ctx, &cfg))
        .fold(f64::INFINITY, f64::min);
    println!(
        "step 3 of serve_exec's A3 template, cold context: {ns:.0} ns \
         (step3/a3_search_ns, min of 7 medians)"
    );
    bench.insert("step3/a3_search_ns".to_string(), ns);
}

/// Store durability: build an n-object store on disk — a compact
/// snapshot holding 90% of the objects plus a live WAL tail with the
/// rest — then measure a cold [`sqo_store::ShardedStore::open`], i.e.
/// snapshot load + checksum verification + WAL-tail replay across all
/// shards. Full runs use one million objects (the manifest row
/// `store/recover_1m_objects`); quick runs shrink the store and never
/// persist the number.
fn bench_store_recovery(quick: bool) -> (usize, f64) {
    let n: u64 = if quick { 20_000 } else { 1_000_000 };
    let dir = std::env::temp_dir().join(format!("sqo-bench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snap_upto = n * 9 / 10;
    {
        let store = sqo_store::ShardedStore::open(&dir, 8).expect("create store dir");
        let put = |oid: u64| {
            store
                .apply(&sqo_store::StoreOp::PutObject {
                    oid,
                    class: "Bench".to_string(),
                    attrs: vec![
                        ("n".to_string(), sqo_store::StoreValue::Int(oid as i64)),
                        (
                            "name".to_string(),
                            sqo_store::StoreValue::Str(format!("obj{oid}")),
                        ),
                    ],
                })
                .expect("apply put");
        };
        for oid in 1..=snap_upto {
            put(oid);
        }
        store.persist().expect("persist snapshot");
        for oid in snap_upto + 1..=n {
            put(oid);
        }
        store.bump_next_oid(n + 1);
        store.sync().expect("sync wal tail");
    }
    let t0 = Instant::now();
    let store = sqo_store::ShardedStore::open(&dir, 8).expect("recover store");
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    assert_eq!(store.object_count() as u64, n, "recovery lost objects");
    let report = store.recover_report().clone();
    assert!(report.had_snapshot, "recovery should load the snapshot");
    assert!(
        report.wal_records_replayed > 0,
        "recovery should replay the WAL tail"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "store recovery: {n} objects (snapshot {snap_upto} + WAL tail {}) in {:.0} ms",
        n - snap_upto,
        ns / 1e6
    );
    (n as usize, ns)
}

/// Measure the e1/f2/e3 pipeline benchmarks with their reference paths,
/// the in-process warm hit, the EDB rows and store recovery, then write
/// the flat `{"name": median_ns}` map to `BENCH_pipeline.json` at the
/// repo root.
fn bench_pipeline(quick: bool) {
    println!("\n## Pipeline benchmarks");
    // The microsecond-scale e1 entries need many repetitions for a
    // stable median on a busy machine; the f2 search is milliseconds.
    let reps_small = if quick { 25 } else { 201 };
    let reps = if quick { 7 } else { 21 };
    let mut bench: BTreeMap<String, f64> = BTreeMap::new();
    let current = SearchConfig::default();

    // Setup shared by every measurement round.
    //
    // e1: Example 1's residue application and contradiction detection.
    let e1_ctx = TransformContext::new(
        ResidueSet::compile(vec![parse_constraint(
            "ic: Age > 30 <- faculty(Sec, Fac, Age).",
        )
        .unwrap()]),
        vec![],
        BTreeMap::new(),
    );
    let attach =
        parse_query("Q(Name) <- student(St, Name), takes_section(St, Sec), faculty(Sec, F, Age)")
            .unwrap();
    let refute = parse_query(
        "Q(Name) <- student(St, Name), takes_section(St, Sec), \
         faculty(Sec, F, Age), Age < 18",
    )
    .unwrap();
    // e1: semantic compilation at the largest configured size (indexed
    // inclusion-closure path; absolute number for regression tracking).
    let ics: Vec<_> = (0..64)
        .map(|i| {
            parse_constraint(&format!("ic: Age > {} <- faculty{}(S, F, Age).", 30 + i, i)).unwrap()
        })
        .collect();
    // f2: Step-3 search at the historically largest configured IC count.
    let (mut opt, oql) = optimizer_with_n_ics(12);
    let parsed = sqo_oql::parse_oql(oql).unwrap();
    let q = opt.translate(&parsed).unwrap().query;
    let ctx = opt.compile();
    // f2 wide-IC: the 32- and 64-IC scenarios the structure memo and
    // exactness prefilter are built for. The looped rows reuse one
    // context, so they time a warm memo (the steady state of a served
    // session); `_cold_context` rows time a context's first search.
    let (mut opt32, oql32) = optimizer_with_n_ics(32);
    let q32 = opt32
        .translate(&sqo_oql::parse_oql(oql32).unwrap())
        .unwrap()
        .query;
    let ctx32 = opt32.compile();
    let (mut opt64, oql64) = optimizer_with_n_ics(64);
    let q64 = opt64
        .translate(&sqo_oql::parse_oql(oql64).unwrap())
        .unwrap()
        .query;
    let ctx64 = opt64.compile();
    // e3: the indexed-rewrite scenario — the semantic rewrite binds an
    // ordered-indexed column (`salary`) the original query never touches.
    // Three rows: the rewrite on the indexed engine (current), the
    // original on the scan-only engine (baseline — what a user without
    // SQO *and* without indexes pays), and the rewrite on the scan-only
    // engine (seed — the pre-index executor, which is exactly what the
    // seed engine was).
    let e3 = indexed_rewrite_scenario(if quick { 2000 } else { 40_000 });
    {
        // Answer-set sanity once per process: all four engine/query
        // combinations agree.
        let (a, _) = execute(&e3.db, &e3.original).unwrap();
        let (b, _) = execute(&e3.db, &e3.optimized).unwrap();
        let (c, _) = execute_with(&e3.db, &e3.original, ExecOptions::scan_only()).unwrap();
        let (d, _) = execute_with(&e3.db, &e3.optimized, ExecOptions::scan_only()).unwrap();
        let sorted = |answers: sqo_datalog::program::Relation| {
            let mut v: Vec<Vec<sqo_datalog::Const>> =
                answers.rows().map(<[sqo_datalog::Const]>::to_vec).collect();
            v.sort();
            v
        };
        let (a, b, c, d) = (sorted(a), sorted(b), sorted(c), sorted(d));
        assert!(a == b && b == c && c == d, "e3 answer sets must agree");
    }

    // Record the minimum of the per-round medians: the machine this runs
    // on flaps between performance modes on a seconds scale, so a single
    // pass can land entries in different modes; round-robin rounds give
    // every entry a shot at an unloaded window, and the min-of-medians is
    // a standard robust estimator under one-sided noise.
    let rounds = if quick { 1 } else { 3 };
    let record = |bench: &mut BTreeMap<String, f64>, key: &str, v: f64| {
        let e = bench.entry(key.to_string()).or_insert(f64::INFINITY);
        if v < *e {
            *e = v;
        }
    };
    for _round in 0..rounds {
        for (name, query) in [
            ("attach_restriction", &attach),
            ("detect_contradiction", &refute),
        ] {
            record(
                &mut bench,
                &format!("e1/{name}"),
                median_ns(reps_small, || {
                    std::hint::black_box(search::optimize(query, &e1_ctx, &current));
                }),
            );
        }
        record(
            &mut bench,
            "e1/semantic_compilation/64",
            median_ns(reps_small, || {
                std::hint::black_box(ResidueSet::compile(ics.clone()));
            }),
        );
        record(
            &mut bench,
            "f2/step3_sqo_vs_applicable_ics/12",
            median_ns(reps, || {
                std::hint::black_box(search::optimize(&q, ctx, &current));
            }),
        );
        for (label, wq, wctx) in [("32", &q32, ctx32), ("64", &q64, ctx64)] {
            record(
                &mut bench,
                &format!("f2/step3_sqo_vs_applicable_ics/{label}"),
                median_ns(reps, || {
                    std::hint::black_box(search::optimize(wq, wctx, &current));
                }),
            );
            record(
                &mut bench,
                &format!("f2/step3_sqo_vs_applicable_ics/{label}_cold_context"),
                median_cold_context_ns(reps, wq, wctx, &current),
            );
        }
        record(
            &mut bench,
            "e3/indexed_rewrite",
            median_ns(reps, || {
                std::hint::black_box(execute(&e3.db, &e3.optimized).unwrap());
            }),
        );
        record(
            &mut bench,
            "e3/indexed_rewrite_baseline",
            median_ns(reps, || {
                std::hint::black_box(
                    execute_with(&e3.db, &e3.original, ExecOptions::scan_only()).unwrap(),
                );
            }),
        );
        record(
            &mut bench,
            "e3/indexed_rewrite_seed",
            median_ns(reps, || {
                std::hint::black_box(
                    execute_with(&e3.db, &e3.optimized, ExecOptions::scan_only()).unwrap(),
                );
            }),
        );
    }

    // The in-process warm hit and what `obs` costs it; a miss, and its
    // reply; a joining template's search.
    bench_warm_hit(&mut bench);
    bench_cold_miss(&mut bench);
    bench_cold_reply(&mut bench);
    bench_a3_search(&mut bench);

    // EDB rebuild and footprint of the served base.
    bench_edb_storage(quick, &mut bench);

    // Durable-store cold recovery (snapshot + WAL-tail replay).
    let (_, recover_ns) = bench_store_recovery(quick);
    bench.insert("store/recover_1m_objects".to_string(), recover_ns);

    println!("{:>44} {:>14} {:>10}", "bench", "median (ns)", "vs base");
    // The one derived row: the rewrite against the path it is compared with.
    let e3_speedup = bench["e3/indexed_rewrite_baseline"] / bench["e3/indexed_rewrite"];
    bench.insert("speedup/e3/indexed_rewrite".to_string(), e3_speedup);
    for (name, ns) in &bench {
        // The x1 rows are ms and bytes, printed with their own table.
        if name.starts_with("speedup/") || name.starts_with("x1/") {
            continue;
        }
        let vs_base = match bench.get(&format!("speedup/{name}")) {
            Some(r) => format!("{r:.2}x"),
            None => "-".into(),
        };
        println!("{name:>44} {ns:>14.0} {vs_base:>10}");
    }

    // Quick mode trades repetitions for speed; its medians are too noisy
    // to record, so it never overwrites the manifest — and says so, so a
    // CI log never reads as if the manifest were refreshed.
    if quick {
        if std::path::Path::new(MANIFEST_PATH).exists() {
            println!(
                "\n(quick mode — declining to overwrite {MANIFEST_PATH}: quick-run medians \
                 are too noisy to persist; existing manifest kept as-is)"
            );
        } else {
            println!(
                "\n(quick mode — declining to write {MANIFEST_PATH}: quick-run medians are \
                 too noisy to persist; run without --quick to generate it)"
            );
        }
        return;
    }
    write_manifest(MANIFEST_PATH, &bench);
    println!("\n(wrote {MANIFEST_PATH})");
}
