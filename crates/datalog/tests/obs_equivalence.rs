//! What the search's observability totals may depend on: which counters a
//! warm context moves (`warm_context_moves_only_structure_counters`), and
//! that histograms recorded on several threads merge to the totals the
//! same samples give on one thread — the service's workers each record
//! into their own registry and merge at flush.

use sqo_datalog::parser::{parse_constraint, parse_query};
use sqo_datalog::residue::ResidueSet;
use sqo_datalog::search::{self, SearchConfig};
use sqo_datalog::transform::TransformContext;
use sqo_obs as obs;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serializes the tests in this binary: counter deltas are computed against
/// the process-global registry.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The paper's university constraints at the Datalog level (Example 1 plus
/// enough extra ICs to keep several candidates live per search level).
fn university_ctx() -> TransformContext {
    let ics = [
        "ic IC1: Age > 30 <- faculty(Sec, Fac, Age).",
        "ic IC2: Age < 70 <- faculty(Sec, Fac, Age).",
        "ic IC5: Fac > 0 <- faculty(Sec, Fac, Age).",
        "ic IC6: Sec > 0 <- takes_section(St, Sec).",
    ]
    .iter()
    .map(|s| parse_constraint(s).unwrap())
    .collect();
    TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new())
}

/// Counter totals recorded while running `f`, as a stable sorted map.
fn counters_of(f: impl FnOnce()) -> BTreeMap<&'static str, u64> {
    let before = obs::snapshot();
    f();
    obs::snapshot().since(&before).counters
}

/// What a second search on the same context may and may not
/// change in the counters: per-node work (`search.*` budget accounting,
/// `residue.applied`) repeats exactly; structure-level work (prefilter,
/// unification, subsumption staging, exactness skips) was charged when the
/// context built the structure and is not charged again.
#[test]
fn warm_context_moves_only_structure_counters() {
    let _g = lock();
    let ctx = university_ctx();
    let cfg = SearchConfig::default();
    let q = parse_query(
        "Q(N1, N2) <- student(S1, N1), student(S2, N2), takes_section(S1, Sec1), \
         takes_section(S2, Sec2), faculty(Sec1, F1, A1), faculty(Sec2, F2, A2)",
    )
    .unwrap();
    let cold = counters_of(|| {
        std::hint::black_box(search::optimize(&q, &ctx, &cfg));
    });
    let warm = counters_of(|| {
        std::hint::black_box(search::optimize(&q, &ctx, &cfg));
    });
    const STRUCTURE_LEVEL: [&str; 5] = [
        "residue.prefilter_hits",
        "residue.prefilter_misses",
        "unify.attempts",
        "subsume.checks",
        "search.exact_skipped",
    ];
    assert!(cold["unify.attempts"] > 0 && cold["residue.applied"] > 0);
    for (name, value) in &cold {
        if STRUCTURE_LEVEL.contains(name) {
            assert_eq!(warm.get(name), Some(&0), "{name} is charged per build");
        } else {
            assert_eq!(warm.get(name), Some(value), "{name} is charged per search");
        }
    }
}

/// One search completes one `step3.search` span, and the per-thread
/// histogram merge — element-wise bucket addition, like the counter merge
/// — cannot depend on worker interleaving: deterministic samples recorded
/// from scoped workers must serialize byte-identically to the same
/// samples recorded on one thread.
#[test]
fn histogram_merge_is_interleaving_independent() {
    let _g = lock();
    let ctx = university_ctx();
    let q =
        parse_query("Q(Name) <- student(St, Name), takes_section(St, Sec), faculty(Sec, F, Age)")
            .unwrap();
    let before = obs::snapshot();
    std::hint::black_box(search::optimize(&q, &ctx, &SearchConfig::default()));
    let delta = obs::snapshot().since(&before);
    assert_eq!(delta.hists["step3.search"].count(), 1);

    let before = obs::snapshot();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..64u64 {
                    obs::record_hist("equiv.hist.pin", (t * 64 + i) * 31 % 4093);
                }
                obs::flush_local();
            });
        }
    });
    let threaded = obs::snapshot().since(&before);
    let before = obs::snapshot();
    for v in 0..256u64 {
        obs::record_hist("equiv.hist.pin", v * 31 % 4093);
    }
    let sequential = obs::snapshot().since(&before);
    assert_eq!(
        threaded.hists["equiv.hist.pin"],
        sequential.hists["equiv.hist.pin"]
    );
}
