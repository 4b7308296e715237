//! Provenance and explain-layer tests over the paper's university queries:
//! golden derivation chains for the Application 2 scope reduction and the
//! Application 3 key-join elimination, plus the structural guarantees the
//! explain surface makes (non-empty provenance for every equivalent,
//! refuting-IC attribution for contradictions, per-run counter deltas).
//! The scope behind a report's `stats` and the request's trace read one
//! thread-local log of completed spans, each from its own mark: the tests
//! at the end hold the two views to each other.

use semantic_sqo::{SemanticOptimizer, Verdict};
use sqo_core::{PlanCache, PreparedOptimizer};
use sqo_obs::{self as obs, Counter};
use std::sync::Mutex;

/// Serializes the tests in this binary: `OptimizationReport::stats` is a
/// delta over the process-global observability registry, so concurrent
/// optimizer runs in sibling tests would bleed into each other's windows.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Application 2: the scope-reduction rewrite carries a one-step chain
/// naming the driving residue (anchored at `person`) and IC4 as source.
#[test]
fn scope_reduction_provenance_golden() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let report = opt
        .optimize("select x.name from x in Person where x.age < 30")
        .unwrap();
    let reduced = report
        .proper_rewrites()
        .find(|e| e.oql.to_string().contains("x not in Faculty"))
        .expect("scope-reduced variant");
    let chain = reduced.provenance();
    assert_eq!(chain.steps.len(), 1, "chain: {chain}");
    let step = &chain.steps[0];
    assert_eq!(step.kind, "scope-reduction");
    let residue = step.residue.as_deref().expect("driving residue named");
    assert!(
        residue.starts_with('r') && residue.ends_with("@person"),
        "residue id `{residue}` should be anchored at person"
    );
    let ic = step.ic.as_deref().expect("source IC named");
    assert!(
        ic.starts_with("IC4"),
        "source IC `{ic}` should trace to IC4"
    );
    assert!(step.detail.contains("faculty"), "detail: {}", step.detail);
}

/// Application 3: the full key-join elimination is a three-step chain —
/// key-equality introduction (driven by the KEY(Faculty.name) residue),
/// then removal of the implied name comparison, then elimination of the
/// now-redundant faculty join.
#[test]
fn key_join_elimination_provenance_golden() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    let report = opt
        .optimize(
            r#"select list(x.student_id, t.employee_id)
               from x in Student
                    y in x.takes
                    z in y.is_taught_by
                    t in TA
                    v in t.takes
                    w in v.is_taught_by
               where z.name = w.name"#,
        )
        .unwrap();
    let eliminated = report
        .proper_rewrites()
        .find(|e| {
            let s = e.oql.to_string();
            s.contains("z = w") && !s.contains("z.name = w.name") && e.steps.len() == 3
        })
        .expect("key-join-eliminated variant");
    let chain = eliminated.provenance();
    let kinds: Vec<&str> = chain.steps.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        ["key-equality", "comparison-removal", "join-elimination"],
        "chain: {chain}"
    );
    let first = &chain.steps[0];
    assert_eq!(first.ic.as_deref(), Some("KEY(Faculty.name)"));
    let residue = first.residue.as_deref().expect("key residue named");
    assert!(residue.ends_with("@faculty"), "residue id `{residue}`");
    // The removal steps are entailment-driven (no residue of their own).
    assert!(chain.steps[1].residue.is_none());
    assert!(chain.steps[2].residue.is_none());
}

/// Every equivalent query — the unchanged original included — carries a
/// non-empty provenance chain, and it survives into `explain_json`.
#[test]
fn every_equivalent_has_nonempty_provenance() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    opt.add_view_text(
        "asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W)",
    )
    .unwrap();
    for oql in [
        "select x.name from x in Person where x.age < 30",
        r#"select w
           from x in Student
                y in x.takes
                z in y.is_section_of
                v in z.has_sections
                w in v.has_ta
           where x.name = "james""#,
    ] {
        let report = opt.optimize(oql).unwrap();
        assert!(!report.equivalents().is_empty());
        for e in report.equivalents() {
            let chain = e.provenance();
            assert!(!chain.steps.is_empty(), "empty chain for {}", e.datalog);
            if e.delta.is_empty() {
                assert_eq!(chain.steps[0].kind, "original");
            } else {
                // Proper rewrites attribute every step to a residue, an
                // IC/view, or an entailment note.
                for s in &chain.steps {
                    assert!(
                        s.residue.is_some() || s.ic.is_some() || !s.detail.is_empty(),
                        "unattributed step in chain for {}",
                        e.datalog
                    );
                }
            }
        }
        let json = report.explain_json();
        assert!(json.contains("\"provenance\":[{"), "{json}");
        assert!(!json.contains("\"provenance\":[]"), "{json}");
    }
}

/// Contradiction reports name the refuting IC and close the chain with a
/// `contradiction` step — both in the API and in the verdict payload.
#[test]
fn contradiction_provenance_names_refuting_ic() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text(
        "ic IC3: Value > 3000 <- taxes_withheld(X, 0.1, Value), faculty(X, N, A, S, R, Ad).",
    )
    .unwrap();
    let report = opt
        .optimize(
            r#"select z.name, w.city
               from x in Student
                    y in x.takes
                    z in y.is_taught_by
                    w in z.address
               where x.name = "john" and z.taxes_withheld(10%) < 1000"#,
        )
        .unwrap();
    let Verdict::Contradiction { ic_name, .. } = &*report.verdict else {
        panic!("expected contradiction, got {:?}", report.verdict);
    };
    assert_eq!(ic_name.as_deref(), Some("IC3"));
    let chain = report.contradiction_provenance().expect("chain present");
    let last = chain.steps.last().unwrap();
    assert_eq!(last.kind, "contradiction");
    assert_eq!(last.ic.as_deref(), Some("IC3"));
    let json = report.explain_json();
    assert!(json.contains("\"verdict\":\"contradiction\""));
    assert!(json.contains("\"ic\":\"IC3\""));
}

/// Union pruning attributes each dropped branch to its refuting IC.
#[test]
fn union_pruning_carries_contradiction_provenance() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let report = opt
        .optimize_union(
            "select x.name from x in Faculty where x.age < 20 \
             union select x.name from x in Student where x.age < 20",
        )
        .unwrap();
    let pruned = report.pruned_provenance();
    assert_eq!(pruned.len(), 1);
    let (branch, ic, chain) = &pruned[0];
    assert_eq!(*branch, 0, "the faculty branch is first in source order");
    assert!(
        ic.as_deref().is_some_and(|n| n.starts_with("IC4")),
        "refuting IC: {ic:?}"
    );
    assert_eq!(chain.steps.last().unwrap().kind, "contradiction");
}

/// The report's stats are a per-run delta: one optimizer query, the
/// Step-3 spans present, and the search counters live.
#[test]
fn report_stats_capture_per_run_counters() {
    let _g = lock();
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let report = opt
        .optimize("select x.name from x in Person where x.age < 30")
        .unwrap();
    let stats = &report.stats;
    assert_eq!(stats.counter(obs::Counter::OptimizerQueries), 1);
    assert_eq!(stats.counter(obs::Counter::TranslateQueries), 1);
    assert!(stats.counter(obs::Counter::SearchLevels) > 0);
    assert!(stats.counter(obs::Counter::UnifyAttempts) > 0);
    assert!(stats.spans.contains_key("step3.search"));
    assert!(stats.spans.contains_key("step2.translate_query"));
    // A second run on the same optimizer reuses the compiled residues, so
    // its delta must not re-count compilation.
    let second = opt
        .optimize("select x.name from x in Person where x.age < 30")
        .unwrap();
    assert_eq!(second.stats.counter(obs::Counter::ResiduesAttached), 0);
    assert_eq!(second.stats.counter(obs::Counter::OptimizerQueries), 1);
}

/// A prepared university optimizer with IC4, and a query it rewrites.
fn prepared() -> (PreparedOptimizer, &'static str) {
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    let oql = "select x.name from x in Person where x.age < 27";
    (opt.prepare(), oql)
}

/// The aggregate of a trace's events of one name, as `stats.spans` has it.
fn aggregate(trace: &obs::Trace, name: &str) -> Option<obs::SpanStat> {
    let durs = trace.events.iter().filter(|e| e.name == name);
    let durs: Vec<u64> = durs.map(|e| e.dur_ns).collect();
    Some(obs::SpanStat {
        count: durs.len() as u64,
        total_ns: durs.iter().sum(),
        min_ns: *durs.iter().min()?,
        max_ns: *durs.iter().max()?,
    })
}

/// As `run_query` nests them — the trace around the optimization, whose
/// report's `stats` is a scope: every span the report lists is in the
/// trace as often and with the very durations, whether the search ran
/// (miss), the instance was filled, or the text decided (hit).
#[test]
fn a_report_and_its_trace_agree_on_every_span() {
    let (prep, oql) = prepared();
    let cache = PlanCache::new();
    for _ in 0..3 {
        obs::trace_begin("request".to_string());
        let (report, _) = prep.optimize_cached(&cache, oql).unwrap();
        {
            let _outside = obs::span!("test.after_the_report");
        }
        let trace = obs::trace_end().expect("begun above");
        assert!(obs::trace_end().is_none(), "closed once");
        assert!(!report.stats.spans.is_empty());
        for (name, stat) in &report.stats.spans {
            assert_eq!(aggregate(&trace, name), Some(*stat), "{name}");
            assert_eq!(report.stats.hists[name].count(), stat.count, "{name}");
        }
        // The trace outlives the scope: it also has the span that
        // enclosed the scope, and what came after the report.
        let in_trace = |name| trace.events.iter().filter(|e| e.name == name).count();
        assert_eq!(in_trace("pipeline.optimize"), 1);
        assert_eq!(in_trace("test.after_the_report"), 1);
        assert!(!report.stats.spans.contains_key("pipeline.optimize"));
        let listed: u64 = report.stats.spans.values().map(|s| s.count).sum();
        assert_eq!(trace.events.len() as u64, listed + 2);
    }
}

/// The other nesting: a scope around whole requests, each with a trace
/// and a report of its own. The outer scope contains every inner one.
#[test]
fn an_inner_scope_is_contained_in_its_outer() {
    let (prep, oql) = prepared();
    let cache = PlanCache::new();
    let outer = obs::Scope::enter();
    let mut inner = Vec::new();
    for _ in 0..2 {
        obs::trace_begin("inside".to_string());
        inner.push(prep.optimize_cached(&cache, oql).unwrap().0.stats);
        let trace = obs::trace_end().expect("begun above");
        let stats = inner.last().unwrap();
        for (name, stat) in &stats.spans {
            assert_eq!(aggregate(&trace, name), Some(*stat), "{name}");
        }
    }
    let outer = outer.finish();
    for (name, v) in &outer.counters {
        let summed: u64 = inner.iter().map(|s| s.counters[name]).sum();
        assert_eq!(*v, summed, "{name}");
    }
    for stats in &inner {
        for (name, stat) in &stats.spans {
            let around = outer.spans[name];
            assert!(around.count >= stat.count && around.total_ns >= stat.total_ns);
            assert!(around.min_ns <= stat.min_ns && around.max_ns >= stat.max_ns);
        }
    }
    // Each request's own `pipeline.optimize` closed inside the outer scope.
    assert_eq!(outer.spans["pipeline.optimize"].count, 2);
    assert_eq!(outer.counter(Counter::OptimizerQueries), 2);
}

/// The serve pool catches a panicking task and reuses its worker, and an
/// error return leaves `run_query`'s callee early: neither may leave
/// anything behind for the worker's next request to report.
#[test]
fn an_error_or_unwind_inside_a_trace_leaves_nothing_for_the_next_request() {
    let (prep, oql) = prepared();
    let cache = PlanCache::new();
    let clean_request = || {
        obs::trace_begin("next".to_string());
        let (report, _) = prep.optimize_cached(&cache, oql).unwrap();
        let trace = obs::trace_end().expect("begun above");
        assert_eq!(trace.id, "next");
        for (name, stat) in &report.stats.spans {
            assert_eq!(aggregate(&trace, name), Some(*stat), "{name}");
        }
        let names: Vec<_> = trace.events.iter().map(|e| e.name).collect();
        assert!(!names.iter().any(|n| n.starts_with("test.")), "{names:?}");
        assert_eq!(report.stats.counter(Counter::OptimizerQueries), 1);
        assert_eq!(report.stats.counter(Counter::UnifyAttempts), 0, "a hit");
    };
    // Miss, then fill: from here on the text decides, and unifies nothing.
    for _ in 0..2 {
        prep.optimize_cached(&cache, oql).unwrap();
    }
    clean_request();

    // `?` through an open scope: the parse error of a request.
    obs::trace_begin("failed".to_string());
    assert!(prep.optimize_cached(&cache, "select from where").is_err());
    let failed = obs::trace_end().expect("begun above");
    assert_eq!(failed.id, "failed");
    clean_request();

    // An unwind through two open scopes and an open span, the trace never
    // closed: the next `trace_begin` replaces it.
    let caught = std::panic::catch_unwind(|| {
        obs::trace_begin("abandoned".to_string());
        let _outer = obs::Scope::enter();
        let _inner = obs::Scope::enter();
        obs::add(Counter::UnifyAttempts, 5);
        {
            let _s = obs::span!("test.before_the_panic");
        }
        let _open = obs::span!("test.open_at_the_panic");
        panic!("injected panic inside two scopes inside a trace");
    });
    assert!(caught.is_err());
    clean_request();
    let empty = obs::Scope::enter().finish();
    assert!(empty.spans.is_empty() && empty.hists.is_empty());
    assert!(empty.counters.values().all(|v| *v == 0));
}

/// Completes a span, records a sample and bumps a counter when its
/// thread's locals are destroyed.
struct RecordsOnExit;

impl Drop for RecordsOnExit {
    fn drop(&mut self) {
        let _s = obs::span!("test.teardown.span");
        obs::record_hist("test.teardown.series", 7);
        obs::bump(Counter::ServeDeadlineExceeded);
    }
}

thread_local! {
    static ON_EXIT: RecordsOnExit = const { RecordsOnExit };
}

/// Thread-locals are destroyed in no promised order: what is recorded
/// after this crate's own are gone goes straight to the registries.
#[test]
fn what_completes_during_tls_teardown_still_reaches_the_snapshot() {
    let before = obs::snapshot();
    let thread = std::thread::spawn(|| {
        // Registered before the thread-locals the span below makes obs
        // register, so (where destructors run newest first) outliving
        // them.
        ON_EXIT.with(|_| ());
        let _s = obs::span!("test.teardown.earlier");
        obs::bump(Counter::ServeDeadlineExceeded);
    });
    thread.join().expect("thread and its destructors ran");
    let delta = obs::snapshot().since(&before);
    assert_eq!(delta.spans["test.teardown.earlier"].count, 1);
    assert_eq!(delta.spans["test.teardown.span"].count, 1);
    assert_eq!(delta.hists["test.teardown.span"].count(), 1);
    let series = delta.spans["test.teardown.series"];
    assert_eq!((series.count, series.total_ns), (1, 7));
    assert_eq!(delta.counter(Counter::ServeDeadlineExceeded), 2);
}
