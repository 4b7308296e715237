//! The request-scoped accumulator.
//!
//! A [`Scope`] answers "what did *this thread* count, and which spans did
//! it complete, since the scope was entered" — the `stats` of one
//! optimization report. On entry it copies the thread's monotonic counter
//! totals and marks the thread's span log; [`Scope::finish`] diffs the one
//! and aggregates the other into a [`Snapshot`]. Nothing process-wide is
//! read, locked or flushed, so the value is the request's own whatever
//! other threads do meanwhile: like the trace layer, a scope deliberately
//! leaves out work other threads merged into the global registries, which
//! stays visible in [`crate::snapshot`] only.
//!
//! Scopes nest (an inner scope's delta is contained in its outer one's)
//! and close on drop, so an early return or an unwind through an open
//! scope leaves the thread clean: the span log is emptied when the
//! outermost scope closes, and a scope-less thread never writes to it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;

use crate::{local_counter_totals, Histogram, Snapshot, SpanStat, COUNTER_NAMES, N_COUNTERS};

/// Spans completed on this thread while a scope was open, in completion
/// order, and how many scopes are open.
struct ScopeLog {
    depth: Cell<usize>,
    spans: RefCell<Vec<(&'static str, u64)>>,
}

thread_local! {
    static LOG: ScopeLog = const {
        ScopeLog {
            depth: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    };
}

/// Called by every completing [`crate::SpanGuard`].
#[inline]
pub(crate) fn note_span(name: &'static str, ns: u64) {
    let _ = LOG.try_with(|log| {
        if log.depth.get() > 0 {
            log.spans.borrow_mut().push((name, ns));
        }
    });
}

/// An open request scope on the calling thread; see the module docs.
///
/// ```
/// let scope = sqo_obs::Scope::enter();
/// sqo_obs::bump(sqo_obs::Counter::OptimizerQueries);
/// let stats = scope.finish();
/// assert_eq!(stats.counter(sqo_obs::Counter::OptimizerQueries), 1);
/// ```
#[must_use = "a scope measures until `finish`; dropping it discards the measurement"]
pub struct Scope {
    /// The thread's lifetime counter totals at entry. Lifetime totals, not
    /// live cells: a flush in the middle of the scope moves counts from the
    /// cells to the global registry and must neither lose nor double them.
    base: [u64; N_COUNTERS],
    /// Length of the thread's span log at entry.
    mark: usize,
    /// A scope reads the thread-locals of the thread that entered it.
    _this_thread: PhantomData<*const ()>,
}

impl Scope {
    /// Opens a scope on the calling thread.
    pub fn enter() -> Scope {
        let mark = LOG
            .try_with(|log| {
                log.depth.set(log.depth.get() + 1);
                log.spans.borrow().len()
            })
            .unwrap_or(0);
        Scope {
            base: local_counter_totals(),
            mark,
            _this_thread: PhantomData,
        }
    }

    /// Closes the scope: every counter (zeros included) by how much this
    /// thread moved it since [`Scope::enter`], and the spans this thread
    /// completed in between, each with its one-sample-per-completion
    /// histogram. Spans still open — the caller's own enclosing span — are
    /// not in it.
    pub fn finish(self) -> Snapshot {
        let now = local_counter_totals();
        let counters = (0..N_COUNTERS)
            .map(|i| (COUNTER_NAMES[i], now[i].saturating_sub(self.base[i])))
            .collect();
        let mut spans: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        let mut hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        let _ = LOG.try_with(|log| {
            for &(name, ns) in log.spans.borrow().get(self.mark..).unwrap_or_default() {
                spans.entry(name).or_default().record(ns);
                hists.entry(name).or_default().record(ns);
            }
        });
        Snapshot {
            counters,
            spans,
            hists,
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let _ = LOG.try_with(|log| {
            let depth = log.depth.get().saturating_sub(1);
            log.depth.set(depth);
            if depth == 0 {
                log.spans.borrow_mut().clear();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add, bump, flush_local, set_enabled, span, Counter};

    fn depth_and_log() -> (usize, usize) {
        LOG.with(|log| (log.depth.get(), log.spans.borrow().len()))
    }

    /// Each test runs on a thread of its own, so the thread-locals start
    /// clean whatever the harness ran on this thread before — under the
    /// lock the registry tests share, because one test of this binary
    /// flips the process-wide enable switch.
    fn on_fresh_thread(test: impl FnOnce() + Send + 'static) {
        let _registry = crate::tests::lock();
        std::thread::spawn(test).join().expect("test thread");
    }

    #[test]
    fn a_scope_reports_its_own_counters_and_spans() {
        on_fresh_thread(|| {
            add(Counter::UnifyAttempts, 4);
            {
                let _before = span!("test.scope.before");
            }
            let scope = Scope::enter();
            add(Counter::UnifyAttempts, 3);
            for _ in 0..2 {
                let _s = span!("test.scope.inside");
            }
            let stats = scope.finish();
            assert_eq!(stats.counter(Counter::UnifyAttempts), 3);
            assert_eq!(stats.counter(Counter::SubsumeChecks), 0);
            assert_eq!(stats.counters.len(), N_COUNTERS, "zeros are present");
            assert_eq!(
                stats.spans.keys().copied().collect::<Vec<_>>(),
                ["test.scope.inside"]
            );
            let stat = stats.spans["test.scope.inside"];
            assert_eq!(stat.count, 2);
            assert!(stat.min_ns <= stat.max_ns && stat.total_ns >= stat.max_ns);
            assert_eq!(stats.hists["test.scope.inside"].count(), 2);
            assert_eq!(depth_and_log(), (0, 0));
        });
    }

    #[test]
    fn scopes_nest_and_the_outer_sees_both() {
        on_fresh_thread(|| {
            let outer = Scope::enter();
            bump(Counter::SearchLevels);
            {
                let _s = span!("test.scope.outer_only");
            }
            let inner = Scope::enter();
            add(Counter::SearchLevels, 2);
            {
                let _s = span!("test.scope.inner");
            }
            let inner = inner.finish();
            assert_eq!(depth_and_log().0, 1, "the outer scope is still open");
            bump(Counter::SearchLevels);
            let outer = outer.finish();

            assert_eq!(inner.counter(Counter::SearchLevels), 2);
            assert_eq!(outer.counter(Counter::SearchLevels), 4);
            assert_eq!(
                inner.spans.keys().copied().collect::<Vec<_>>(),
                ["test.scope.inner"]
            );
            assert_eq!(
                outer.spans.keys().copied().collect::<Vec<_>>(),
                ["test.scope.inner", "test.scope.outer_only"]
            );
            for (name, v) in &inner.counters {
                assert!(v <= &outer.counters[name], "{name}: inner ⊆ outer");
            }
            assert_eq!(depth_and_log(), (0, 0));
        });
    }

    #[test]
    fn an_early_return_closes_the_scope() {
        fn fails() -> Result<Snapshot, std::num::ParseIntError> {
            let scope = Scope::enter();
            {
                let _s = span!("test.scope.abandoned");
            }
            "not a number".parse::<u32>()?;
            Ok(scope.finish())
        }
        on_fresh_thread(|| {
            assert!(fails().is_err());
            assert_eq!(depth_and_log(), (0, 0));
            let next = Scope::enter().finish();
            assert!(next.spans.is_empty(), "the next scope starts clean");
        });
    }

    /// The serve pool catches a panicking task and reuses its worker.
    #[test]
    fn an_unwind_through_open_scopes_leaves_the_thread_clean() {
        on_fresh_thread(|| {
            let caught = std::panic::catch_unwind(|| {
                let _outer = Scope::enter();
                let _inner = Scope::enter();
                bump(Counter::ServeRequests);
                {
                    let _s = span!("test.scope.before_panic");
                }
                let _open = span!("test.scope.open_at_panic");
                panic!("injected panic inside two scopes");
            });
            assert!(caught.is_err());
            assert_eq!(depth_and_log(), (0, 0));
            let scope = Scope::enter();
            bump(Counter::ServeRequests);
            let next = scope.finish();
            assert_eq!(next.counter(Counter::ServeRequests), 1);
            assert!(next.spans.is_empty(), "{:?}", next.spans);
        });
    }

    #[test]
    fn a_flush_in_the_middle_neither_loses_nor_doubles() {
        on_fresh_thread(|| {
            let scope = Scope::enter();
            add(Counter::ResiduesApplied, 5);
            {
                let _s = span!("test.scope.flushed");
            }
            flush_local();
            add(Counter::ResiduesApplied, 2);
            let _ = crate::snapshot();
            {
                let _s = span!("test.scope.flushed");
            }
            let stats = scope.finish();
            assert_eq!(stats.counter(Counter::ResiduesApplied), 7);
            assert_eq!(stats.spans["test.scope.flushed"].count, 2);
        });
    }

    #[test]
    fn a_scope_with_recording_disabled_is_all_zeros() {
        let _registry = crate::tests::lock();
        set_enabled(false);
        let scope = Scope::enter();
        bump(Counter::OptimizerQueries);
        {
            let _s = span!("test.scope.disabled");
        }
        let stats = scope.finish();
        set_enabled(true);
        assert_eq!(stats.counters.len(), N_COUNTERS);
        assert!(stats.counters.values().all(|v| *v == 0));
        assert!(stats.spans.is_empty() && stats.hists.is_empty());
    }

    #[test]
    fn a_scope_ignores_what_other_threads_count() {
        on_fresh_thread(|| {
            let scope = Scope::enter();
            bump(Counter::PlanCacheHits);
            std::thread::spawn(|| {
                add(Counter::PlanCacheHits, 100);
                let _s = span!("test.scope.elsewhere");
                flush_local();
            })
            .join()
            .expect("other thread");
            let _ = crate::snapshot();
            let stats = scope.finish();
            assert_eq!(stats.counter(Counter::PlanCacheHits), 1);
            assert!(stats.spans.is_empty());
        });
    }
}
