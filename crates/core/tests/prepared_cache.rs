//! Behavior tests for [`PreparedOptimizer`] + [`PlanCache`].
//!
//! These assert on obs counter/span deltas. A report's `stats` and an
//! [`obs::Scope`] are the asserting thread's own; the tests still
//! serialize through one lock, as the obs enable switch is process-global.

use sqo_core::{CacheOutcome, OptimizationReport, PlanCache, PreparedOptimizer, SemanticOptimizer};
use sqo_obs as obs;
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn prepared_university() -> PreparedOptimizer {
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    opt.prepare()
}

/// Rewrites of every equivalent, as (oql, changed) pairs — the
/// cache-independent part of a report.
fn rewrites(r: &OptimizationReport) -> Vec<(String, bool)> {
    r.equivalents()
        .iter()
        .map(|e| (e.oql.to_string(), !e.delta.is_empty()))
        .collect()
}

#[test]
fn warm_hit_skips_search_and_matches_fresh_output() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    // Note 28, not 30: a parameter *equal* to IC4's threshold would pin
    // the entry's signature to the exact-match class.
    let (cold, d0) = prep
        .optimize_cached(&cache, "select x.name from x in Person where x.age < 28")
        .unwrap();
    assert_eq!(d0, CacheOutcome::Miss);
    assert!(cold.stats.counter(obs::Counter::SearchLevels) > 0);

    // Same template, different constant, same side of IC4's 30.
    let (warm, d1) = prep
        .optimize_cached(&cache, "select x.name from x in Person where x.age < 25")
        .unwrap();
    assert_eq!(d1, CacheOutcome::Hit);
    // The warm path ran no Step-1 compilation and no Step-3 search.
    assert_eq!(warm.stats.counter(obs::Counter::ResiduesAttached), 0);
    assert_eq!(warm.stats.counter(obs::Counter::SearchLevels), 0);
    assert_eq!(warm.stats.counter(obs::Counter::SearchNodesExpanded), 0);
    assert!(!warm.stats.spans.contains_key("step3.search"));
    assert!(!warm.stats.spans.contains_key("step1.compile"));

    // And the rewrites are identical to a fresh, uncached run.
    let fresh = prep
        .optimize("select x.name from x in Person where x.age < 25")
        .unwrap();
    assert_eq!(rewrites(&warm), rewrites(&fresh));
    assert!(rewrites(&warm).iter().any(|(oql, changed)| {
        *changed && oql.contains("x not in Faculty") && oql.contains("x.age < 25")
    }));
}

#[test]
fn signature_mismatch_rebinds() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    // age < 20 sits below IC4's 30, so the faculty scope reduction
    // applies; 20 orders Less against the 30 threshold.
    let (_r0, d0) = prep
        .optimize_cached(&cache, "select x.name from x in Person where x.age < 20")
        .unwrap();
    assert_eq!(d0, CacheOutcome::Miss);
    // age < 50 orders Greater against 30: the cached plan may not
    // transfer, so the cache must re-search.
    let (r1, d1) = prep
        .optimize_cached(&cache, "select x.name from x in Person where x.age < 50")
        .unwrap();
    assert_eq!(d1, CacheOutcome::Rebind);
    let fresh = prep
        .optimize("select x.name from x in Person where x.age < 50")
        .unwrap();
    assert_eq!(rewrites(&r1), rewrites(&fresh));
    // The rebound entry now answers its own parameter family.
    let (_r2, d2) = prep
        .optimize_cached(&cache, "select x.name from x in Person where x.age < 60")
        .unwrap();
    assert_eq!(d2, CacheOutcome::Hit);
}

#[test]
fn contradictions_are_cached_and_retargeted() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    let (r0, d0) = prep
        .optimize_cached(&cache, "select x.name from x in Faculty where x.age < 20")
        .unwrap();
    assert_eq!(d0, CacheOutcome::Miss);
    assert!(r0.is_contradiction());
    let (r1, d1) = prep
        .optimize_cached(&cache, "select x.name from x in Faculty where x.age < 25")
        .unwrap();
    assert_eq!(d1, CacheOutcome::Hit);
    assert!(r1.is_contradiction());
    assert_eq!(r1.stats.counter(obs::Counter::SearchLevels), 0);
}

#[test]
fn invalidation_prevents_stale_plans() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    let q = "select x.name from x in Person where x.age < 30";
    let (_r, d0) = prep.optimize_cached(&cache, q).unwrap();
    assert_eq!(d0, CacheOutcome::Miss);
    assert_eq!(cache.len(), 1);
    let scope = obs::Scope::enter();
    cache.invalidate();
    let invalidated = scope.finish();
    assert_eq!(invalidated.counter(obs::Counter::PlanCacheInvalidations), 1);
    assert!(cache.is_empty());
    // The same query misses again (fresh compilation of the plan).
    let (_r, d1) = prep.optimize_cached(&cache, q).unwrap();
    assert_eq!(d1, CacheOutcome::Miss);
}

#[test]
fn generation_mismatch_is_never_served() {
    let _g = lock();
    let prep0 = prepared_university();
    let cache = PlanCache::new();
    let q = "select x.name from x in Person where x.age < 30";
    let (_r, d0) = prep0.optimize_cached(&cache, q).unwrap();
    assert_eq!(d0, CacheOutcome::Miss);
    // A reloaded schema at a newer generation must not serve the old
    // entry even if the cache was (incorrectly) not invalidated.
    let prep1 = prepared_university().with_generation(1);
    let (_r, d1) = prep1.optimize_cached(&cache, q).unwrap();
    assert_ne!(d1, CacheOutcome::Hit);
}

/// Templates are held to the cache's capacity, and invalidation counts
/// each one it drops.
#[test]
fn templates_stay_within_capacity() {
    let _g = lock();
    let prep = prepared_university();
    let capacity = 4;
    let cache = PlanCache::with_capacity(capacity);
    let scope = obs::Scope::enter();
    let mut asked = 0;
    for class in ["Person", "Student"] {
        for (proj, pred) in [
            ("x.name", "x.age < 28"),
            ("x.age", "x.age < 28"),
            ("x.name", "x.age > 28 and x.age < 90"),
            ("x.age", "x.age > 28 and x.age < 90"),
        ] {
            let q = format!("select {proj} from x in {class} where {pred}");
            let (_r, d) = prep.optimize_cached(&cache, &q).unwrap();
            assert_eq!(d, CacheOutcome::Miss, "{q} should be a distinct template");
            asked += 1;
            assert_eq!(cache.len(), asked.min(capacity));
        }
    }
    cache.invalidate();
    let delta = scope.finish();
    assert_eq!(delta.counter(obs::Counter::PlanCacheMisses), asked as u64);
    assert_eq!(
        delta.counter(obs::Counter::PlanCacheInvalidations),
        capacity as u64
    );
    assert!(cache.is_empty());
}

#[test]
fn distinct_templates_do_not_collide() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    let (_r, d0) = prep
        .optimize_cached(&cache, "select x.name from x in Person where x.age < 30")
        .unwrap();
    assert_eq!(d0, CacheOutcome::Miss);
    let (_r, d1) = prep
        .optimize_cached(&cache, "select x.name from x in Student where x.age < 30")
        .unwrap();
    assert_eq!(
        d1,
        CacheOutcome::Miss,
        "different class, different template"
    );
    assert_eq!(cache.len(), 2);
}

fn instance_hits(r: &OptimizationReport) -> u64 {
    r.stats.counter(obs::Counter::PlanCacheInstanceHits)
}

/// A repeat of a warm hit is served from the finished instance that hit
/// filled: same verdict object, no retargeting, no Step 4 — and every
/// counter a hit bumps is bumped as before.
#[test]
fn a_repeated_query_is_served_from_its_finished_instance() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    let q = "select x.name from x in Person where x.age < 25";
    let (_, d0) = prep.optimize_cached(&cache, q).unwrap();
    let (filled, d1) = prep.optimize_cached(&cache, q).unwrap();
    let (repeat, d2) = prep.optimize_cached(&cache, q).unwrap();
    assert_eq!(
        (d0, d1, d2),
        (CacheOutcome::Miss, CacheOutcome::Hit, CacheOutcome::Hit)
    );
    assert_eq!((instance_hits(&filled), instance_hits(&repeat)), (0, 1));
    assert_eq!(cache.instance_count(), 1);
    assert!(std::sync::Arc::ptr_eq(&filled.verdict, &repeat.verdict));
    assert!(filled.stats.spans.contains_key("cache.retarget"));
    assert!(!repeat.stats.spans.contains_key("cache.retarget"));
    for c in [
        obs::Counter::OptimizerQueries,
        obs::Counter::OptimizerRewrites,
        obs::Counter::OptimizerContradictions,
        obs::Counter::PlanCacheHits,
        obs::Counter::PlanCacheRebinds,
        obs::Counter::PlanCacheMisses,
    ] {
        assert_eq!(repeat.stats.counter(c), filled.stats.counter(c), "{c:?}");
    }
    // Same words as a fresh run, on one line.
    let fresh = prep.optimize(q).unwrap();
    let body = |r: &OptimizationReport| {
        let json = r.explain_json();
        json[..json.find("\"stats\":").unwrap()].to_string()
    };
    assert_eq!(body(&repeat), body(&fresh));
    let json = repeat.explain_json();
    assert_eq!(
        obs::json_compact(&json),
        json,
        "one line, nothing to compact"
    );
    // Invalidation leaves no instance behind.
    cache.invalidate();
    assert_eq!(cache.instance_count(), 0);
    let (_, d3) = prep.optimize_cached(&cache, q).unwrap();
    assert_eq!(d3, CacheOutcome::Miss);
}

/// Two OQL surfaces with one Datalog translation share a template, yet
/// Step 4 prints each its own rewrites: each text has its own instance.
#[test]
fn instances_do_not_alias_across_select_clause_shapes() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    let plain = "select x.name, x.age from x in Person where x.age < 25";
    let list = "select list(x.name, x.age) from x in Person where x.age < 25";
    let texts = |r: &OptimizationReport| -> Vec<String> {
        r.equivalents().iter().map(|e| e.oql.to_string()).collect()
    };
    for _ in 0..2 {
        prep.optimize_cached(&cache, plain).unwrap();
    }
    let (p, _) = prep.optimize_cached(&cache, plain).unwrap();
    assert_eq!(instance_hits(&p), 1);
    assert_eq!(cache.len(), 1, "one template for both surfaces");

    let (l, d) = prep.optimize_cached(&cache, list).unwrap();
    assert_eq!(d, CacheOutcome::Hit);
    assert_eq!(
        instance_hits(&l),
        0,
        "the other surface's instance is not this query's"
    );
    assert_eq!(cache.len(), 1);
    assert!(
        texts(&l).iter().all(|t| t.contains("list(")),
        "{:?}",
        texts(&l)
    );
    assert!(
        texts(&p).iter().all(|t| !t.contains("list(")),
        "{:?}",
        texts(&p)
    );
    assert_eq!(texts(&l), texts(&prep.optimize(list).unwrap()));

    let (l2, _) = prep.optimize_cached(&cache, list).unwrap();
    assert_eq!(instance_hits(&l2), 1);
    assert_eq!(texts(&l2), texts(&l));
    let (p2, _) = prep.optimize_cached(&cache, plain).unwrap();
    assert_eq!(texts(&p2), texts(&p));
}

/// Instances are held to an eighth of the cache's capacity whichever
/// templates they came from, every eviction is counted, and a rebind
/// leaves them be.
#[test]
fn instances_are_bounded_and_evictions_counted() {
    let _g = lock();
    let prep = prepared_university();
    let (capacity, extra) = (4usize, 3usize);
    let cache = PlanCache::with_capacity(8 * capacity);
    let ask = |q: String| prep.optimize_cached(&cache, &q).unwrap();
    let names = |c: usize| format!("select x.name from x in Person where x.age < {c}");
    let evicted = |scope: obs::Scope| {
        scope
            .finish()
            .counter(obs::Counter::PlanCacheInstanceEvictions)
    };
    let scope = obs::Scope::enter();
    assert_eq!(ask(names(10)).1, CacheOutcome::Miss);
    for c in 10..10 + capacity + extra {
        assert_eq!(ask(names(c)).1, CacheOutcome::Hit, "all below IC4's 30");
    }
    assert_eq!(cache.instance_count(), capacity);
    assert_eq!(evicted(scope), extra as u64);
    // The survivors are still served.
    let served: u64 = (10..10 + capacity + extra)
        .map(|c| instance_hits(&ask(names(c)).0))
        .sum();
    assert!(served >= 1 && cache.instance_count() == capacity);

    // Across IC4's threshold the template rebinds; the instances stay.
    assert_eq!(ask(names(35)).1, CacheOutcome::Rebind);
    assert_eq!(cache.instance_count(), capacity);

    // Another template's first instance gives up one of them.
    let scope = obs::Scope::enter();
    let ages = "select x.age from x in Person where x.age < 20".to_string();
    assert_eq!(ask(ages.clone()).1, CacheOutcome::Miss);
    assert_eq!(ask(ages.clone()).1, CacheOutcome::Hit);
    assert_eq!(cache.instance_count(), capacity);
    assert_eq!(evicted(scope), 1);
    assert_eq!(instance_hits(&ask(ages).0), 1, "the newcomer stayed");
}

/// A text the cache has finished is answered before it is parsed: the
/// hit shares what the filling hit kept, counts what a hit counts, and
/// its stats show the one lookup it did — no Step 2.
#[test]
fn a_verbatim_repeat_is_decided_on_its_text() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    let q = "select x.name from x in Person where x.age < 25";
    prep.optimize_cached(&cache, q).unwrap();
    assert_eq!(cache.instance_count(), 0, "a miss finishes no instance");
    let (filled, _) = prep.optimize_cached(&cache, q).unwrap();
    assert_eq!(cache.instance_count(), 1);
    assert_eq!(
        filled.stats.counter(obs::Counter::TranslateQueries),
        1,
        "the filling hit went through Step 2"
    );
    assert_eq!(filled.stats.spans["cache.lookup"].count, 2);

    let (hit, d) = prep.optimize_cached(&cache, q).unwrap();
    assert_eq!(d, CacheOutcome::Hit);
    assert_eq!(instance_hits(&hit), 1);
    assert_eq!(hit.stats.counter(obs::Counter::TranslateQueries), 0);
    assert_eq!(hit.stats.counter(obs::Counter::OptimizerQueries), 1);
    assert_eq!(hit.stats.counter(obs::Counter::PlanCacheHits), 1);
    assert_eq!(
        hit.stats.spans.keys().copied().collect::<Vec<_>>(),
        ["cache.lookup"]
    );
    assert_eq!(hit.stats.spans["cache.lookup"].count, 1);
    assert_eq!(
        (&hit.original, &hit.normalized, &hit.datalog),
        (&filled.original, &filled.normalized, &filled.datalog),
        "what Step 2 made of the text comes back from the instance"
    );
    assert!(Arc::ptr_eq(&hit.verdict, &filled.verdict));
    let body = |r: &OptimizationReport| {
        let json = r.explain_json();
        json[..json.find("\"stats\":").unwrap()].to_string()
    };
    assert_eq!(body(&hit), body(&prep.optimize(q).unwrap()));

    // Another spelling is another text: it pays Step 2 and a retarget
    // once, for an instance of its own that says the same, and is a text
    // hit from then on.
    let respelled = "SELECT  x.name  FROM x IN Person  WHERE x.age < 25";
    let (first, d) = prep.optimize_cached(&cache, respelled).unwrap();
    assert_eq!(d, CacheOutcome::Hit);
    assert_eq!(instance_hits(&first), 0);
    assert_eq!(first.stats.counter(obs::Counter::TranslateQueries), 1);
    assert!(first.stats.spans.contains_key("cache.retarget"));
    let (second, _) = prep.optimize_cached(&cache, respelled).unwrap();
    assert_eq!(instance_hits(&second), 1);
    assert_eq!(second.stats.counter(obs::Counter::TranslateQueries), 0);
    assert!(Arc::ptr_eq(&second.verdict, &first.verdict));
    assert_eq!(body(&second), body(&hit));
    assert_eq!(cache.instance_count(), 2);

    // The parsed entry point goes by the text the query renders to: one
    // more spelling.
    let parsed = sqo_oql::parse_oql(q).unwrap();
    let (rendered, _) = prep.optimize_query_cached(&cache, &parsed).unwrap();
    assert_eq!(instance_hits(&rendered), 0);
    assert_eq!(rendered.original, parsed);
    let (again, _) = prep.optimize_query_cached(&cache, &parsed).unwrap();
    assert_eq!(instance_hits(&again), 1);
    assert_eq!(again.stats.counter(obs::Counter::TranslateQueries), 0);
    assert_eq!(body(&again), body(&hit));

    // A text of another generation's optimizer is not this one's.
    let reloaded = prepared_university().with_generation(1);
    let (other, d) = reloaded.optimize_cached(&cache, q).unwrap();
    assert_ne!(d, CacheOutcome::Hit);
    assert_eq!(instance_hits(&other), 0);

    cache.invalidate();
    assert_eq!(cache.instance_count(), 0);
}

/// Templates are held to the cache's capacity and finished texts to an
/// eighth of it, whatever the number of distinct texts.
#[test]
fn distinct_texts_stay_within_capacity() {
    let _g = lock();
    let prep = prepared_university();
    let capacity = 16;
    let cache = PlanCache::with_capacity(capacity);
    for c in 0..1000 {
        // One template, a thousand bindings (and two rebinds, at IC4's 30).
        let q = format!("select x.name from x in Person where x.age < {c}");
        prep.optimize_cached(&cache, &q).unwrap();
        assert!(
            cache.instance_count() <= capacity / 8,
            "{}",
            cache.instance_count()
        );
        assert!(cache.len() <= capacity);
    }
    assert_eq!(cache.instance_count(), capacity / 8);
}

/// The parsed entry point answers the very query it is given. String
/// literals holding a CR, a control byte or a non-ASCII letter, a real
/// too large to print with a fraction by accident, and a negative
/// integer all parse back from the query's rendering unchanged — on the
/// miss, on the hit that fills the text, and on the text hit.
#[test]
fn a_parsed_query_is_answered_as_itself() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    for src in [
        "select x.name from x in Person where x.name = \"a\rb\"",
        "select x.name from x in Person where x.name = \"\u{1}\"",
        "select x.name from x in Person where x.name = \"é\"",
        "select x.name from x in Person where x.name = 'tab\\there'",
        "select x.name from x in Faculty where x.taxes_withheld(1000000000000000.0) < 5",
        "select x.name from x in Person where x.age > -5",
    ] {
        let q = sqo_oql::parse_oql(src).unwrap();
        let outcomes: Vec<_> = (0..3)
            .map(|_| {
                let (report, outcome) = prep.optimize_query_cached(&cache, &q).unwrap();
                assert_eq!(report.original, q, "{src:?}");
                (outcome, instance_hits(&report))
            })
            .collect();
        assert_eq!(outcomes[2], (CacheOutcome::Hit, 1), "{src:?}: {outcomes:?}");
    }
    let q = sqo_oql::parse_oql("select x.name from x in Person where x.name = \"é\"").unwrap();
    let sqo_oql::Predicate { rhs, .. } = &q.where_[0];
    assert_eq!(rhs.to_string(), "\"é\"", "a letter, not its UTF-8 bytes");

    // A query built by hand whose text stands for another is refused.
    let mut odd = sqo_oql::parse_oql("select x from x in Person").unwrap();
    odd.select = vec![sqo_oql::SelectItem::Expr(sqo_oql::Expr::Path(
        sqo_oql::PathExpr::var("x.name"),
    ))];
    assert!(prep.optimize_query_cached(&cache, &odd).is_err());
}

/// A rebind searches the template again for the new region; the text
/// finished in the old one keeps its instance, whose verdict was derived
/// under its own signature, and is still a text hit.
#[test]
fn a_rebind_keeps_finished_texts() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    let young = "select x.name from x in Person where x.age < 25";
    for _ in 0..3 {
        prep.optimize_cached(&cache, young).unwrap();
    }
    assert_eq!(cache.instance_count(), 1);
    let old = "select x.name from x in Person where x.age < 35";
    assert_eq!(
        prep.optimize_cached(&cache, old).unwrap().1,
        CacheOutcome::Rebind
    );
    assert_eq!(cache.instance_count(), 1);

    let (again, d) = prep.optimize_cached(&cache, young).unwrap();
    assert_eq!(d, CacheOutcome::Hit);
    assert_eq!(instance_hits(&again), 1);
    assert_eq!(again.stats.counter(obs::Counter::TranslateQueries), 0);
    assert_eq!(rewrites(&again), rewrites(&prep.optimize(young).unwrap()));
}

/// The text-hit branch on its own: a repeat of a finished text is the
/// report `optimize_cached` gives it, and any other text leaves one probe
/// behind and nothing else.
#[test]
fn finished_text_is_the_text_hit_branch_of_optimize_cached() {
    let _g = lock();
    let prep = prepared_university();
    let cache = PlanCache::new();
    let q = "select x.name from x in Person where x.age < 25";
    let global = obs::snapshot();
    assert!(prep.finished_text(&cache, q).is_none());
    let probed = obs::snapshot().since(&global);
    assert_eq!(probed.hists["cache.lookup"].count(), 1);
    assert!(!probed.hists.contains_key("pipeline.optimize"));
    assert_eq!(probed.counter(obs::Counter::OptimizerQueries), 0);

    prep.optimize_cached(&cache, q).unwrap();
    assert!(
        prep.finished_text(&cache, q).is_none(),
        "a miss finishes none"
    );
    let (filled, _) = prep.optimize_cached(&cache, q).unwrap();
    let hit = prep
        .finished_text(&cache, q)
        .expect("the fill finished the text");
    let (again, d) = prep.optimize_cached(&cache, q).unwrap();
    assert_eq!(d, CacheOutcome::Hit);
    for report in [&hit, &again] {
        assert_eq!(instance_hits(report), 1);
        assert_eq!(report.stats.counter(obs::Counter::OptimizerQueries), 1);
        assert_eq!(report.stats.spans["cache.lookup"].count, 1);
        assert!(Arc::ptr_eq(&report.verdict, &filled.verdict));
    }
    let body = |r: &OptimizationReport| {
        let json = r.explain_json();
        json[..json.find("\"stats\":").unwrap()].to_string()
    };
    assert_eq!(body(&hit), body(&again));
}
