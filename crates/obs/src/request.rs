//! The request log: what one thread completed for one request.
//!
//! Every completing [`crate::SpanGuard`] appends one [`SpanEvent`] to a
//! thread-local log while anything on the thread is reading it, and
//! nothing otherwise. There are two kinds of reader, and each remembers
//! only where in the log it began (its *mark*):
//!
//! * a [`Scope`] — "what did *this thread* count, and which spans did it
//!   complete, since the scope was entered": the `stats` of one
//!   optimization report. On entry it copies the thread's monotonic
//!   counter totals; [`Scope::finish`] diffs them and aggregates the log
//!   from its mark into a [`Snapshot`].
//! * the trace — [`trace_begin`] / [`trace_end`] around one request; the
//!   log from its mark *is* the trace's ordered event list. Only while a
//!   trace is open does a span also carry its start offset and the
//!   counters the thread moved while it was open; one that opened before
//!   the trace did and completes inside it is listed with neither.
//!
//! Nothing process-wide is read, locked or flushed, so both answers are
//! the request's own whatever other threads do meanwhile; work other
//! threads merged into the global registries is deliberately left out
//! (attributing it to one request would be wrong under concurrency) and
//! stays visible in [`crate::snapshot`] only. Counter deltas come from the
//! thread's lifetime totals (live cells plus everything already flushed),
//! so a flush in the middle of a scope or a span neither loses nor
//! doubles a count.
//!
//! Scopes nest (an inner scope's delta is contained in its outer one's)
//! and close on drop, so an early return or an unwind through an open
//! scope leaves the thread clean: the log is emptied when its last reader
//! closes. A trace has no guard; one left open by an unwind is replaced,
//! and its events dropped, by the next [`trace_begin`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::time::Instant;

use crate::{
    json_string, local_counter_totals, saturating_ns, spans_of, Histogram, Snapshot, COUNTER_NAMES,
    N_COUNTERS,
};

/// One completed span inside a trace, in completion order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (same registry as [`crate::span!`]), or a synthetic
    /// event name such as `serve.admission_wait`.
    pub name: &'static str,
    /// Start offset in nanoseconds relative to [`trace_begin`].
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nonzero counter deltas attributed to the executing thread while
    /// the span was open, sorted by counter name.
    pub counters: Vec<(&'static str, u64)>,
}

/// A completed request trace: its id and ordered span events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Request trace id (deterministic `session:generation:seq` under the
    /// service; free-form otherwise).
    pub id: String,
    /// Completed span events in completion order.
    pub events: Vec<SpanEvent>,
}

impl Trace {
    /// Appends the event list to `out` as a JSON array of `name`,
    /// `start_ns`, `dur_ns` and `counters` objects, keeping the blank
    /// after each `,` and `:` that `"trace":true` replies carry.
    pub fn write_events_json(&self, out: &mut String) {
        out.push('[');
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let name = json_string(e.name);
            let _ = write!(
                out,
                "{sep}{{\"name\": {name}, \"start_ns\": {}, \"dur_ns\": {}, \"counters\": {{",
                e.start_ns, e.dur_ns
            );
            for (j, (name, v)) in e.counters.iter().enumerate() {
                let sep = if j > 0 { ", " } else { "" };
                let _ = write!(out, "{sep}{}: {v}", json_string(name));
            }
            out.push_str("}}");
        }
        out.push(']');
    }

    /// Total duration per event name, in first-occurrence order: a name
    /// that completed several times (two `cache.lookup` probes, one
    /// `edb.index_build` per index) is one entry with the summed time.
    pub fn stage_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.events {
            match totals.iter_mut().find(|(name, _)| *name == e.name) {
                Some((_, ns)) => *ns = ns.saturating_add(e.dur_ns),
                None => totals.push((e.name, e.dur_ns)),
            }
        }
        totals
    }
}

struct OpenTrace {
    id: String,
    began: Instant,
    /// Length of the log at [`trace_begin`].
    mark: usize,
}

struct RequestLog {
    /// How many [`Scope`]s are open on this thread.
    scopes: usize,
    trace: Option<OpenTrace>,
    /// What completed while a scope or the trace was open, in completion
    /// order.
    done: Vec<SpanEvent>,
}

impl RequestLog {
    fn has_reader(&self) -> bool {
        self.scopes > 0 || self.trace.is_some()
    }

    /// Called after a reader closed: the last one out empties the log.
    /// Nothing else shortens it, so an open reader's mark stays inside.
    fn release(&mut self) {
        if !self.has_reader() {
            self.done.clear();
        }
    }
}

thread_local! {
    static LOG: RefCell<RequestLog> = const {
        RefCell::new(RequestLog {
            scopes: 0,
            trace: None,
            done: Vec::new(),
        })
    };
}

/// Every counter with how far this thread moved it since `base`.
fn counter_deltas(base: &[u64; N_COUNTERS]) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    let now = local_counter_totals();
    (0..N_COUNTERS).map(move |i| (COUNTER_NAMES[i], now[i].saturating_sub(base[i])))
}

/// What an opening [`crate::SpanGuard`] keeps to have its counters
/// attributed: the thread's lifetime totals, and only inside a trace.
pub(crate) fn span_baseline() -> Option<[u64; N_COUNTERS]> {
    let tracing = LOG.try_with(|log| log.borrow().trace.is_some());
    tracing.unwrap_or(false).then(local_counter_totals)
}

/// Called by every completing [`crate::SpanGuard`].
pub(crate) fn note_span(
    name: &'static str,
    started: Instant,
    dur_ns: u64,
    base: Option<&[u64; N_COUNTERS]>,
) {
    let _ = LOG.try_with(|log| {
        let mut log = log.borrow_mut();
        if !log.has_reader() {
            return;
        }
        let (start_ns, counters) = match (&log.trace, base) {
            (Some(trace), Some(base)) => {
                // In name order, as the counters are declared.
                let moved = counter_deltas(base).filter(|(_, d)| *d != 0).collect();
                (saturating_ns(started.duration_since(trace.began)), moved)
            }
            // No trace is open, or the span is older than the trace.
            _ => (0, Vec::new()),
        };
        log.done.push(SpanEvent {
            name,
            start_ns,
            dur_ns,
            counters,
        });
    });
}

/// Opens a trace on the calling thread, replacing any open one.
pub fn trace_begin(id: String) {
    let _ = LOG.try_with(|log| {
        let mut log = log.borrow_mut();
        log.trace = None;
        log.release();
        log.trace = Some(OpenTrace {
            id,
            began: Instant::now(),
            mark: log.done.len(),
        });
    });
}

/// Closes the calling thread's trace, returning what completed since
/// [`trace_begin`] (`None` when no trace was open, e.g. after TLS
/// teardown).
pub fn trace_end() -> Option<Trace> {
    let closed = LOG.try_with(|log| {
        let mut log = log.borrow_mut();
        let OpenTrace { id, mark, .. } = log.trace.take()?;
        let events = if log.scopes == 0 {
            log.done.split_off(mark)
        } else {
            log.done[mark..].to_vec()
        };
        log.release();
        Some(Trace { id, events })
    });
    closed.ok().flatten()
}

/// Appends a synthetic event (e.g. admission-queue wait measured before
/// the worker thread picked the request up) to the open trace. It is an
/// entry of the log like any other: a scope open around it lists it.
pub fn trace_event(name: &'static str, start_ns: u64, dur_ns: u64) {
    let _ = LOG.try_with(|log| {
        let mut log = log.borrow_mut();
        if log.trace.is_some() {
            log.done.push(SpanEvent {
                name,
                start_ns,
                dur_ns,
                counters: Vec::new(),
            });
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
    /// The thread's lifetime counter totals at entry.
    base: [u64; N_COUNTERS],
    /// Length of the thread's log at entry.
    mark: usize,
    /// A scope reads the thread-locals of the thread that entered it.
    _this_thread: PhantomData<*const ()>,
}

impl Scope {
    /// Opens a scope on the calling thread.
    pub fn enter() -> Scope {
        let mark = LOG.try_with(|log| {
            let mut log = log.borrow_mut();
            log.scopes += 1;
            log.done.len()
        });
        Scope {
            base: local_counter_totals(),
            mark: mark.unwrap_or(0),
            _this_thread: PhantomData,
        }
    }

    /// Closes the scope: every counter (zeros included) by how much this
    /// thread moved it since [`Scope::enter`], and the spans this thread
    /// completed in between, each as a one-sample-per-completion
    /// histogram and its aggregate. Spans still open — the caller's own
    /// enclosing span — are not in it.
    pub fn finish(self) -> Snapshot {
        let mut hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        let _ = LOG.try_with(|log| {
            for e in &log.borrow().done[self.mark..] {
                hists.entry(e.name).or_default().record(e.dur_ns);
            }
        });
        Snapshot {
            counters: counter_deltas(&self.base).collect(),
            spans: spans_of(&hists),
            hists,
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let _ = LOG.try_with(|log| {
            let mut log = log.borrow_mut();
            log.scopes = log.scopes.saturating_sub(1);
            log.release();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add, bump, flush_local, set_enabled, span, Counter};

    /// Open scopes and logged events on this thread.
    fn depth_and_log() -> (usize, usize) {
        LOG.with(|log| (log.borrow().scopes, log.borrow().done.len()))
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

    #[test]
    fn a_trace_collects_ordered_events_with_counter_deltas() {
        on_fresh_thread(|| {
            assert!(trace_end().is_none());
            trace_begin("s:0:7".to_string());
            trace_event("serve.admission_wait", 0, 1234);
            {
                let _s = span!("test.trace.outer");
                add(Counter::UnifyAttempts, 3);
                // A snapshot mid-span flushes the local cells; the
                // cumulative totals keep the delta intact.
                let _ = crate::snapshot();
                add(Counter::UnifyAttempts, 2);
            }
            {
                let _s = span!("test.trace.second");
            }
            trace_event("serve.admission_wait", 0, 6);
            let trace = trace_end().expect("trace was open");
            assert_eq!(trace.id, "s:0:7");
            let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
            assert_eq!(
                names,
                [
                    "serve.admission_wait",
                    "test.trace.outer",
                    "test.trace.second",
                    "serve.admission_wait"
                ]
            );
            let totals = trace.stage_totals();
            assert_eq!(totals.len(), 3);
            assert_eq!(totals[0], ("serve.admission_wait", 1240));
            assert_eq!(trace.events[1].counters, [("unify.attempts", 5)]);
            assert!(trace.events[2].counters.is_empty());
            assert!(trace.events[1].start_ns <= trace.events[2].start_ns);
            let mut json = String::new();
            trace.write_events_json(&mut json);
            assert!(json.contains("\"name\": \"test.trace.outer\""));
            assert!(json.contains("\"unify.attempts\": 5"));
            // The trace is closed: further spans are not logged.
            {
                let _s = span!("test.trace.after");
            }
            assert_eq!(depth_and_log(), (0, 0));
            assert!(trace_end().is_none());
        });
    }

    /// One log, two readers: whichever of the scope and the trace closes
    /// first, each sees every completion since its own mark, once.
    #[test]
    fn a_scope_and_a_trace_read_the_same_log_by_mark() {
        on_fresh_thread(|| {
            // As `run_query` nests them: the trace outside the scope.
            trace_begin("outside".into());
            {
                let _s = span!("test.log.before_scope");
            }
            let scope = Scope::enter();
            for _ in 0..3 {
                let _s = span!("test.log.both");
            }
            let stats = scope.finish();
            assert_eq!(depth_and_log(), (0, 4), "the trace still reads the log");
            {
                let _s = span!("test.log.after_scope");
            }
            let trace = trace_end().expect("open");
            assert_eq!(depth_and_log(), (0, 0));
            assert_eq!(
                stats.spans.keys().copied().collect::<Vec<_>>(),
                ["test.log.both"]
            );
            let both: Vec<u64> = trace
                .events
                .iter()
                .filter(|e| e.name == "test.log.both")
                .map(|e| e.dur_ns)
                .collect();
            let stat = stats.spans["test.log.both"];
            assert_eq!(stat.count, 3);
            assert_eq!(stat.total_ns, both.iter().sum::<u64>());
            assert_eq!(Some(stat.min_ns), both.iter().copied().min());
            assert_eq!(Some(stat.max_ns), both.iter().copied().max());
            assert_eq!(trace.events.len(), 5);

            // The other way round: the scope outside the trace.
            let scope = Scope::enter();
            {
                let _s = span!("test.log.before_trace");
            }
            trace_begin("inside".into());
            {
                let _s = span!("test.log.both");
            }
            let trace = trace_end().expect("open");
            assert_eq!(depth_and_log(), (1, 2), "the scope still reads the log");
            let stats = scope.finish();
            assert_eq!(depth_and_log(), (0, 0));
            assert_eq!(trace.events.len(), 1);
            assert_eq!(stats.spans.len(), 2);
            assert_eq!(
                stats.spans["test.log.both"].total_ns,
                trace.events[0].dur_ns
            );
        });
    }

    /// `run_query` has no guard for its trace: a panic leaves it open, and
    /// the worker's next request replaces it.
    #[test]
    fn a_trace_abandoned_by_an_unwind_is_replaced_by_the_next() {
        on_fresh_thread(|| {
            let caught = std::panic::catch_unwind(|| {
                trace_begin("abandoned".into());
                let _scope = Scope::enter();
                {
                    let _s = span!("test.log.before_panic");
                }
                panic!("injected panic inside a scope inside a trace");
            });
            assert!(caught.is_err());
            assert_eq!(depth_and_log(), (0, 1));
            trace_begin("next".into());
            assert_eq!(depth_and_log(), (0, 0));
            {
                let _s = span!("test.log.next");
            }
            let trace = trace_end().expect("open");
            assert_eq!(trace.id, "next");
            assert_eq!(trace.events.len(), 1);
            assert_eq!(depth_and_log(), (0, 0));
        });
    }

    /// A discarded span is recorded nowhere: not in the open scope, not
    /// in its series.
    #[test]
    fn a_discarded_span_is_recorded_nowhere() {
        on_fresh_thread(|| {
            let before = crate::snapshot();
            let scope = Scope::enter();
            span!("test.discarded").discard();
            assert!(scope.finish().spans.is_empty());
            let global = crate::snapshot().since(&before);
            assert!(!global.hists.contains_key("test.discarded"));
        });
    }
}
