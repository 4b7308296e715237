//! A report's `stats` is its own: what the thread that ran the
//! optimization counted, whatever other threads do on the same plan cache
//! at the same time — and the per-report counters still add up to the
//! whole-process delta `metrics` reports. An index build is counted the
//! same way: by the request whose probe was the column's first, and by no
//! request after it.

use semantic_sqo::datalog::parser::parse_query;
use semantic_sqo::objdb::{execute, ObjectDb, UniversityConfig, Value};
use sqo_core::{CacheOutcome, PlanCache, SemanticOptimizer};
use sqo_obs::{self as obs, Counter};
use std::sync::Barrier;

const THREADS: usize = 2;
const REQUESTS: usize = 20_000;

/// Counters an optimization through the plan cache moves.
const SUMMED: [Counter; 8] = [
    Counter::OptimizerQueries,
    Counter::OptimizerRewrites,
    Counter::TranslateQueries,
    Counter::PlanCacheHits,
    Counter::PlanCacheInstanceHits,
    Counter::PlanCacheMisses,
    Counter::PlanCacheRebinds,
    Counter::SearchNodesExpanded,
];

#[test]
fn concurrent_reports_count_only_their_own_request() {
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let prep = opt.prepare();
    let cache = PlanCache::new();
    // A few texts per thread, so both threads also meet in the shards.
    let texts: Vec<String> = (20..26)
        .map(|c| format!("select x.name from x in Person where x.age < {c}"))
        .collect();

    let before = obs::snapshot();
    let start = Barrier::new(THREADS);
    let per_thread: Vec<[u64; SUMMED.len()]> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (prep, cache, texts, start) = (&prep, &cache, &texts, &start);
                s.spawn(move || {
                    let mut sums = [0u64; SUMMED.len()];
                    start.wait();
                    for i in 0..REQUESTS {
                        let text = &texts[(i + t) % texts.len()];
                        let (report, outcome) = prep.optimize_cached(cache, text).unwrap();
                        let stat = |c| report.stats.counter(c);
                        assert_eq!(
                            stat(Counter::OptimizerQueries),
                            1,
                            "request {i} of thread {t} reports another thread's work"
                        );
                        if stat(Counter::TranslateQueries) == 0 {
                            // Decided on the text: no Step 2, one lookup.
                            assert_eq!(outcome, CacheOutcome::Hit);
                            assert_eq!(stat(Counter::PlanCacheInstanceHits), 1);
                            assert_eq!(report.stats.spans["cache.lookup"].count, 1);
                            assert!(!report.stats.spans.contains_key("step2.translate_query"));
                        }
                        for (sum, c) in sums.iter_mut().zip(SUMMED) {
                            *sum += stat(c);
                        }
                    }
                    // The scope joins on the closure's return, not on the
                    // thread-local destructors that would publish this.
                    obs::flush_local();
                    sums
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let whole = obs::snapshot().since(&before);

    for (i, c) in SUMMED.into_iter().enumerate() {
        let summed: u64 = per_thread.iter().map(|sums| sums[i]).sum();
        assert_eq!(summed, whole.counter(c), "{c:?}: reports vs process");
    }
    let total = (THREADS * REQUESTS) as u64;
    assert_eq!(whole.counter(Counter::OptimizerQueries), total);
    // All but each text's miss and fill — raced, so a handful per thread
    // and text — were decided on the text.
    let by_text = total - whole.counter(Counter::TranslateQueries);
    assert!(by_text >= total * 99 / 100, "{by_text} of {total}");
}

/// What one read of `student.name` builds, as its request sees it: the
/// thread's scope and the request trace, as `sqo serve` opens them.
#[test]
fn only_the_first_read_of_a_column_builds_its_index() {
    let mut data = UniversityConfig::default().build().unwrap();
    let q = parse_query("Q(X) <- student(X, \"student7\", A, Sid, Ad)").unwrap();
    let read = |db: &ObjectDb| {
        obs::trace_begin("read".to_string());
        let scope = obs::Scope::enter();
        execute(db, &q).unwrap();
        let trace = obs::trace_end().expect("begun above");
        let builds: Vec<_> = trace
            .events
            .into_iter()
            .filter(|e| e.name == "edb.index_build")
            .map(|e| e.counters)
            .collect();
        let stats = scope.finish();
        let spans = stats.spans.get("edb.index_build").map_or(0, |s| s.count);
        (stats.counter(Counter::EdbIndexBuilds), spans, builds)
    };
    // The EDB build declares some forty indexes and builds none; the read
    // pays for the one it walks, in a span of its own trace.
    let one_build = vec![vec![("edb.index_builds", 1)]];
    assert_eq!(read(&data.db), (1, 1, one_build.clone()));
    assert_eq!(read(&data.db), (0, 0, vec![]));
    assert_eq!(read(&data.db), (0, 0, vec![]));
    // A write makes stale only the relations it changes. A plain
    // person's leaves `student`, and the index built on it, in place.
    let age = Value::Int(41);
    data.db.set_attr(data.persons[0], "age", age).unwrap();
    assert_eq!(read(&data.db), (0, 0, vec![]));
    // A student's rebuilds `student`, which starts without.
    data.db
        .set_attr(data.students[0], "age", Value::Int(19))
        .unwrap();
    assert_eq!(read(&data.db), (1, 1, one_build));
    assert_eq!(read(&data.db), (0, 0, vec![]));
}

/// A read that finds the EDB stale pays its refresh inside its own
/// request: one `objdb.edb_refresh` span in its scope and its trace, and
/// a read after it none.
#[test]
fn a_stale_read_shows_its_refresh() {
    let mut data = UniversityConfig::default().build().unwrap();
    let q = parse_query("Q(X) <- student(X, \"student7\", A, Sid, Ad)").unwrap();
    let read = |db: &ObjectDb| {
        obs::trace_begin("read".to_string());
        let scope = obs::Scope::enter();
        execute(db, &q).unwrap();
        let trace = obs::trace_end().expect("begun above");
        let traced = trace
            .events
            .iter()
            .filter(|e| e.name == "objdb.edb_refresh");
        let spans = scope
            .finish()
            .spans
            .get("objdb.edb_refresh")
            .map(|s| s.count);
        (spans.unwrap_or(0), traced.count())
    };
    // The first read builds the whole EDB, the second finds it built.
    assert_eq!(read(&data.db), (1, 1));
    assert_eq!(read(&data.db), (0, 0));
    for (class, oids) in [("Person", &data.persons), ("Student", &data.students)] {
        data.db.set_attr(oids[0], "age", Value::Int(33)).unwrap();
        assert_eq!(read(&data.db), (1, 1), "after a {class} write");
        assert_eq!(read(&data.db), (0, 0), "after a {class} write");
    }
}
