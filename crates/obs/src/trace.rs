//! Request-scoped trace context.
//!
//! A trace is opened with [`trace_begin`] on the thread that executes a
//! request and closed with [`trace_end`], which returns the ordered list
//! of span events that completed in between. Each event carries the span
//! name, its start offset relative to the trace begin, its duration, and
//! the delta of every counter the *executing thread* bumped while the
//! span was open. Counter deltas are derived from the thread's cumulative
//! cell totals (live cells plus everything already flushed), so snapshot
//! flushes in the middle of a span do not corrupt them. Work merged into
//! the global registry by *other* threads is intentionally excluded:
//! attributing it to one request would be wrong under concurrency, so it
//! stays visible only in the global counters.
//!
//! The context is thread-local and costs one `Cell<bool>` read per span
//! when no trace is active, keeping the instrumentation-overhead budget
//! intact for batch (non-serving) workloads.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::{json_string, local_counter_totals, N_COUNTERS};

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

impl SpanEvent {
    /// Serializes the event as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut counters = String::from("{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                counters.push_str(", ");
            }
            counters.push_str(&format!("{}: {v}", json_string(name)));
        }
        counters.push('}');
        format!(
            "{{\"name\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"counters\": {}}}",
            json_string(self.name),
            self.start_ns,
            self.dur_ns,
            counters
        )
    }
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
    /// Serializes the event list as a JSON array.
    pub fn events_json(&self) -> String {
        let items: Vec<String> = self.events.iter().map(SpanEvent::to_json).collect();
        format!("[{}]", items.join(", "))
    }

    /// Duration of a named event, when present (first occurrence).
    pub fn event_dur_ns(&self, name: &str) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.dur_ns)
    }
}

struct ActiveTrace {
    id: String,
    start: Instant,
    events: Vec<SpanEvent>,
}

thread_local! {
    /// Cheap per-span check; shadows `ACTIVE.is_some()`.
    static TRACING: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Returns whether a trace is active on the calling thread.
#[inline]
pub fn trace_active() -> bool {
    TRACING.try_with(Cell::get).unwrap_or(false)
}

/// Opens a trace on the calling thread, replacing any active one.
pub fn trace_begin(id: String) {
    let _ = ACTIVE.try_with(|a| {
        *a.borrow_mut() = Some(ActiveTrace {
            id,
            start: Instant::now(),
            events: Vec::new(),
        });
    });
    let _ = TRACING.try_with(|t| t.set(true));
}

/// Closes the calling thread's trace, returning its events (`None` when
/// no trace was active, e.g. after TLS teardown).
pub fn trace_end() -> Option<Trace> {
    let _ = TRACING.try_with(|t| t.set(false));
    ACTIVE
        .try_with(|a| a.borrow_mut().take())
        .ok()
        .flatten()
        .map(|t| Trace {
            id: t.id,
            events: t.events,
        })
}

/// Pushes a synthetic event (e.g. admission-queue wait measured before
/// the worker thread picked the request up) onto the active trace.
pub fn trace_event(name: &'static str, start_ns: u64, dur_ns: u64) {
    if !trace_active() {
        return;
    }
    let _ = ACTIVE.try_with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.events.push(SpanEvent {
                name,
                start_ns,
                dur_ns,
                counters: Vec::new(),
            });
        }
    });
}

/// Baseline of the executing thread's cumulative counter totals, captured
/// by [`crate::SpanGuard`] at span entry when a trace is active.
pub(crate) fn span_baseline() -> Option<Box<[u64; N_COUNTERS]>> {
    if !trace_active() {
        return None;
    }
    Some(Box::new(local_counter_totals()))
}

/// Completes a span inside the active trace: computes the counter delta
/// against `base` and appends the event.
pub(crate) fn push_span(
    name: &'static str,
    started: Instant,
    dur_ns: u64,
    base: &[u64; N_COUNTERS],
) {
    let now_totals = local_counter_totals();
    let mut counters: Vec<(&'static str, u64)> = Vec::new();
    for (idx, (after, before)) in now_totals.iter().zip(base.iter()).enumerate() {
        let delta = after.saturating_sub(*before);
        if delta != 0 {
            counters.push((crate::COUNTER_NAMES[idx], delta));
        }
    }
    counters.sort_by_key(|(name, _)| *name);
    let _ = ACTIVE.try_with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            let start_ns =
                u64::try_from(started.duration_since(t.start).as_nanos()).unwrap_or(u64::MAX);
            t.events.push(SpanEvent {
                name,
                start_ns,
                dur_ns,
                counters,
            });
        }
    });
}
