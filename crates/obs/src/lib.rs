//! Dependency-free observability layer for the SQO pipeline.
//!
//! The workspace builds hermetically, so this crate supplies the small slice
//! of `tracing`/`metrics` functionality the pipeline needs, in the same
//! spirit as the `shims/` stand-ins. There are two process-wide registries
//! — the counters and the series — each fed from thread-local state that
//! merges in on [`flush_local`], [`snapshot`] and thread exit, and one
//! thread-local request log. Recording is on by default, cheap enough to
//! leave on, and a no-op behind one relaxed atomic load when disabled
//! ([`set_enabled`]).
//!
//! * **A counter bump** ([`bump`] / [`add`], the fixed set [`Counter`])
//!   lands in a thread-local cell. A flush adds the cell to the global
//!   total and to the thread's *flushed* tally; cell + tally is the
//!   thread's monotonic lifetime total, which is what request-level
//!   attribution diffs, so the hot path is one cell write and the merged
//!   totals do not depend on which worker ran which request.
//! * **A completing span** ([`span!`] returns the guard) is recorded once,
//!   as one sample of the series of its name, and appended to the
//!   thread's request log when something is reading it.
//! * **A series** is a [`Histogram`]: log-bucketed (HDR-style, two
//!   sub-buckets per octave) plus the exact count, sum, minimum and
//!   maximum. [`record_hist`] feeds one explicitly (`serve.request`,
//!   `serve.serialize`, `serve.wait`, `store.recover`). Merging is element-wise addition —
//!   associative and commutative — so several threads' series merge
//!   byte-identically to one thread recording every sample, and a span's
//!   `count / total_ns / min_ns / max_ns` ([`SpanStat`]) is read off its
//!   series when a [`Snapshot`] is taken, not stored beside it.
//! * **A request** reads the thread's log of completed spans from the
//!   mark at which it began: a [`Scope`] aggregates it (with the thread's
//!   own counter deltas) into the `stats` of one report, and
//!   [`trace_begin`] / [`trace_end`] return it as ordered [`SpanEvent`]s
//!   (name, start offset, duration, per-span counter deltas).
//! * **Snapshots** — [`snapshot`] copies the registries with a stable
//!   (sorted) key order: whole-process totals, and deltas of them through
//!   [`Snapshot::since`]. A scope's result has the same shape.
//! * **Provenance** — [`Provenance`] / [`ProvenanceStep`] records describing
//!   which residue, source integrity constraint, and transformation kind
//!   derived each rewrite. These are plain data (always populated, never
//!   gated by [`enabled`]).
//! * **JSON** — one compact form, written into the caller's buffer;
//!   [`JsonEscape`] escapes a `Display` value while it is formatted.

#![warn(missing_docs)]

mod hist;
mod request;

pub use hist::{Histogram, N_HIST_BUCKETS};
pub use request::{trace_begin, trace_end, trace_event, Scope, SpanEvent, Trace};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Enable switch
// ---------------------------------------------------------------------------

/// Recording is on by default: the whole point of the layer is that it is
/// cheap enough to leave enabled. `set_enabled(false)` turns every span and
/// counter into a no-op behind one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Returns whether span/counter recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables span/counter recording globally.
///
/// Disabling does not clear previously recorded data; use [`reset`] for that.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Declares [`Counter`], its stable dotted names, [`Counter::all`] and
/// [`N_COUNTERS`] from one list, so a new counter is one line here. The
/// list is kept in name order (a unit test holds it): every request
/// collects it into a sorted map, which costs a quarter as much when the
/// input already is.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// The fixed set of pipeline counters.
        ///
        /// Every counter is monotonic within a process (until [`reset`]). The
        /// discriminant doubles as the index into the counter arrays, and
        /// [`Counter::name`] gives the stable dotted name used in snapshots.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        const ALL_COUNTERS: &[Counter] = &[$(Counter::$variant,)+];
        const COUNTER_NAMES: [&str; N_COUNTERS] = [$($name,)+];

        /// Number of distinct counters.
        pub const N_COUNTERS: usize = ALL_COUNTERS.len();
    };
}

counters! {
    /// Chases a bound stopped: match steps (one match's
    /// `MAX_MATCH_STEPS`, or all of a chase's together), derived facts,
    /// fresh nulls or rounds. A chase out of steps is refused and the
    /// atom kept; one out of facts, nulls or rounds answers from what it
    /// derived, so "not derivable" means "not derivable within the
    /// bounds". At most one per chase.
    ChaseExhausted => "chase.budget_exhausted",
    /// Candidate atoms the chase's matches tried (`match_db_staged`
    /// steps): dependency bodies, the head checks of restricted firing
    /// and the final entailment test.
    ChaseSteps => "chase.steps",
    /// Secondary indexes of stored relations built: each by the first
    /// probe of its column (span `edb.index_build`), so a repeated read
    /// adds none.
    EdbIndexBuilds => "edb.index_builds",
    /// Tuples flowing into join steps during evaluation.
    EvalJoinInputTuples => "eval.join_input_tuples",
    /// Tuples flowing out of join steps during evaluation.
    EvalJoinOutputTuples => "eval.join_output_tuples",
    /// Equality probes against declared (persistent) hash indexes.
    ExecIndexProbes => "exec.index_probe",
    /// Queries executed by the object-database evaluator.
    ExecQueries => "exec.queries",
    /// Range probes against declared ordered indexes.
    ExecRangeProbes => "exec.range_probe",
    /// Full relation passes (explicit scans plus ephemeral index builds).
    ExecScans => "exec.scan",
    /// Classes parsed by the ODL parser (Step 1 input).
    OdlClassesParsed => "odl.classes_parsed",
    /// Queries refuted outright by an integrity constraint.
    OptimizerContradictions => "optimizer.contradictions",
    /// Queries optimized by the `SemanticOptimizer` facade.
    OptimizerQueries => "optimizer.queries",
    /// Equivalent rewrites (beyond the original) produced by the optimizer.
    OptimizerRewrites => "optimizer.rewrites",
    /// Plan-cache lookups answered with a fully retargeted cached plan.
    PlanCacheHits => "plan_cache.hits",
    /// Finished instances dropped to keep the plan cache within capacity.
    PlanCacheInstanceEvictions => "plan_cache.instance_evictions",
    /// Plan-cache hits answered from a finished instance: the verdict,
    /// explain body and chosen plan were reused, not re-derived.
    PlanCacheInstanceHits => "plan_cache.instance_hits",
    /// Plan-cache entries dropped by a generation bump (IC/schema reload).
    PlanCacheInvalidations => "plan_cache.invalidations",
    /// Plan-cache lookups that found no usable entry.
    PlanCacheMisses => "plan_cache.misses",
    /// Plan-cache lookups where the template matched but the parameter
    /// signature differed, forcing a fresh search that re-populated the
    /// template entry.
    PlanCacheRebinds => "plan_cache.rebinds",
    /// Residues whose body matched a query and produced a candidate.
    ResiduesApplied => "residue.applied",
    /// Residues attached to relation predicates during IC compilation.
    ResiduesAttached => "residue.attached",
    /// Residue applicability prefilter accepted (full match attempted).
    PrefilterHits => "residue.prefilter_hits",
    /// Residue applicability prefilter rejected (match skipped).
    PrefilterMisses => "residue.prefilter_misses",
    /// Searches a budget bounded (depth bound reached, variant budget
    /// spent, or nodes passed through unexpanded): "gave up", as opposed
    /// to "nothing more to find". At most one per search.
    SearchBudgetExhausted => "search.budget_exhausted",
    /// Candidates dropped because their fingerprint was already seen.
    SearchDedupHits => "search.dedup_hits",
    /// Residue applications skipped by the exactness prefilter: the
    /// residue head provably cannot change the answer set of any query.
    SearchExactSkipped => "search.exact_skipped",
    /// Peak size of a search level (the queue between two rounds), summed
    /// per search.
    SearchFrontierPeak => "search.frontier_peak",
    /// Levels (derivation depths) processed by the Step-3 search.
    SearchLevels => "search.levels",
    /// Search nodes analysed by the Step-3 search.
    SearchNodesExpanded => "search.nodes_expanded",
    /// Candidate nodes pruned by the Step-3 search (duplicate or variant cap).
    SearchNodesPruned => "search.nodes_pruned",
    /// Candidate variants eliminated by the subsumption index before
    /// analysis/costing.
    SearchSubsumedPruned => "search.subsumed_pruned",
    /// Requests that missed their deadline before or during execution.
    ServeDeadlineExceeded => "serve.deadline_exceeded",
    /// `query` requests the serve front end received, valid or not.
    ServeRequests => "serve.requests",
    /// Requests shed because the admission queue was full.
    ServeShed => "serve.shed",
    /// Requests whose service time exceeded the slow-query threshold.
    ServeSlowQueries => "serve.slow_queries",
    /// Total nanoseconds accepted requests spent waiting in the admission
    /// queue before a worker picked them up.
    ServeWaitNs => "serve.wait_ns",
    /// Panics caught while serving a request and answered as
    /// `internal_error`: on a worker, or on the serving loop in what it
    /// answers itself (control ops, writes, finished rewrite-only texts).
    ServeWorkerPanic => "serve.worker_panic",
    /// Sessions prepared (ODL parse + Step-1 translation + residue
    /// compilation) by the service session registry.
    ServiceSessionsPrepared => "service.sessions_prepared",
    /// Total nanoseconds spent recovering stores (snapshot load + WAL
    /// tail replay).
    StoreRecoverNs => "store.recover_ns",
    /// Total nanoseconds spent waiting to acquire store shard locks.
    StoreShardLockWaitNs => "store.shard_lock_wait",
    /// Bytes written by the most recent store snapshot (cumulative across
    /// snapshots; per-snapshot sizes are visible in the `persist` response).
    StoreSnapshotBytes => "store.snapshot_bytes",
    /// Records appended to the object-store write-ahead log.
    StoreWalAppends => "store.wal_appends",
    /// Residue-path matches (`match_body_onto` calls and the residue
    /// structure's matches) that `MAX_MATCH_STEPS` stopped: each went on
    /// with the matches found so far, so a rewrite only a later match
    /// would have offered is not found. The chase's refusals are
    /// `chase.budget_exhausted`.
    SubsumeBudgetExhausted => "subsume.budget_exhausted",
    /// Subsumption checks: `match_body_onto` calls and the residue
    /// structure's matches (the chase's matching charges none).
    SubsumeChecks => "subsume.checks",
    /// OQL queries translated to Datalog (Step 2).
    TranslateQueries => "translate.queries",
    /// Atom-level unification attempts: `match_atoms` calls, and the
    /// candidates of a literal's own relation a charged match tried.
    UnifyAttempts => "unify.attempts",
}

impl Counter {
    /// Stable dotted name used as the snapshot key.
    #[inline]
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }

    /// All counters, in declaration order — which is name order.
    pub fn all() -> impl Iterator<Item = Counter> {
        ALL_COUNTERS.iter().copied()
    }
}

/// Global merged totals. Thread-local cells flush here on thread exit and on
/// [`snapshot`]/[`reset`] from the owning thread.
static GLOBAL: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];

/// Per-thread counter cells. Keeping increments thread-local means the hot
/// paths (unification, prefilter checks) never contend on a shared cache
/// line; the `Drop` impl merges each worker's totals into [`GLOBAL`] exactly
/// once, at the sequential join when `std::thread::scope` joins the worker.
struct LocalCells {
    cells: [Cell<u64>; N_COUNTERS],
    /// Cumulative totals already flushed to [`GLOBAL`] by this thread.
    /// `cells[i] + flushed[i]` is the thread's monotonic lifetime total,
    /// which the request log diffs to attribute counters to scopes and
    /// spans without adding any work to the hot [`add`] path.
    flushed: [Cell<u64>; N_COUNTERS],
}

impl LocalCells {
    const fn new() -> Self {
        LocalCells {
            cells: [const { Cell::new(0) }; N_COUNTERS],
            flushed: [const { Cell::new(0) }; N_COUNTERS],
        }
    }

    fn flush(&self) {
        for ((cell, flushed), global) in self
            .cells
            .iter()
            .zip(self.flushed.iter())
            .zip(GLOBAL.iter())
        {
            let v = cell.replace(0);
            if v != 0 {
                flushed.set(flushed.get().wrapping_add(v));
                global.fetch_add(v, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for LocalCells {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: LocalCells = const { LocalCells::new() };
}

/// Increments `c` by one.
#[inline]
pub fn bump(c: Counter) {
    add(c, 1);
}

/// Adds `n` to counter `c`.
///
/// The increment lands in a thread-local cell; totals become globally
/// visible when the thread exits or when the thread calls [`snapshot`].
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    let idx = c as usize;
    // `try_with` so late increments during thread teardown (after the TLS
    // destructor ran) fall back to the global registry instead of panicking.
    let ok = LOCAL.try_with(|l| l.cells[idx].set(l.cells[idx].get() + n));
    if ok.is_err() {
        GLOBAL[idx].fetch_add(n, Ordering::Relaxed);
    }
}

/// The calling thread's monotonic lifetime counter totals (live cells plus
/// everything it already flushed). Request-level attribution diffs these:
/// immune to a flush in between, unlike the raw cells.
pub(crate) fn local_counter_totals() -> [u64; N_COUNTERS] {
    LOCAL
        .try_with(|l| {
            let mut out = [0u64; N_COUNTERS];
            for (o, (cell, flushed)) in out.iter_mut().zip(l.cells.iter().zip(l.flushed.iter())) {
                *o = cell.get().wrapping_add(flushed.get());
            }
            out
        })
        .unwrap_or([0; N_COUNTERS])
}

/// Flushes the calling thread's local counter cells and series into the
/// global registries.
///
/// Worker threads flush automatically on exit; long-lived threads (e.g. the
/// main thread) call this implicitly via [`snapshot`] / [`reset`].
pub fn flush_local() {
    let _ = LOCAL.try_with(LocalCells::flush);
    let _ = LOCAL_SERIES.try_with(LocalSeries::flush);
}

// ---------------------------------------------------------------------------
// Series registry
// ---------------------------------------------------------------------------

type SeriesMap = BTreeMap<&'static str, Histogram>;

/// Global merged series keyed by name: one per span name, fed by
/// [`SpanGuard`], and the explicit request-level ones (`serve.request`,
/// `serve.serialize`, `serve.wait`, `store.recover`), fed by [`record_hist`].
static SERIES: Mutex<SeriesMap> = Mutex::new(BTreeMap::new());

/// Per-thread series, merged into [`SERIES`] with the same discipline as
/// the counter cells: on thread exit and on [`flush_local`] /
/// [`snapshot`]. The merge is commutative (bucket-wise, count and sum
/// additions, exact extrema), so the merged state does not depend on
/// thread interleaving or merge order — and a completing span takes no
/// process-wide lock.
struct LocalSeries(RefCell<SeriesMap>);

impl LocalSeries {
    fn flush(&self) {
        let mut local = self.0.borrow_mut();
        if local.is_empty() {
            return;
        }
        if let Ok(mut global) = SERIES.lock() {
            for (name, h) in local.iter() {
                global.entry(name).or_default().merge(h);
            }
        }
        local.clear();
    }
}

impl Drop for LocalSeries {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL_SERIES: LocalSeries = const { LocalSeries(RefCell::new(BTreeMap::new())) };
}

/// One sample of the named series. Thread-local until the next flush.
fn record(name: &'static str, ns: u64) {
    let local = LOCAL_SERIES.try_with(|l| l.0.borrow_mut().entry(name).or_default().record(ns));
    if local.is_err() {
        // TLS teardown: straight into the global registry.
        if let Ok(mut global) = SERIES.lock() {
            global.entry(name).or_default().record(ns);
        }
    }
}

/// Records one sample (nanoseconds, by convention) into the named
/// series. Thread-local until the next flush, like counters.
#[inline]
pub fn record_hist(name: &'static str, ns: u64) {
    if enabled() {
        record(name, ns);
    }
}

/// Ensures the named series exists in the global registry (with zero
/// samples if never recorded), so consumers see a stable key set.
pub fn hist_touch(name: &'static str) {
    if let Ok(mut global) = SERIES.lock() {
        global.entry(name).or_default();
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Exact aggregate of one series — for a span name, its timing. A plain
/// value read off the series' [`Histogram`] when a [`Snapshot`] is made.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed span guards.
    pub count: u64,
    /// Total elapsed nanoseconds across all completions.
    pub total_ns: u64,
    /// Fastest single completion in nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Slowest single completion in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    /// Mean elapsed nanoseconds per completion (0 when `count == 0`).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// The aggregates of the series that have samples: [`Snapshot::spans`]
/// for a given [`Snapshot::hists`].
pub(crate) fn spans_of(hists: &SeriesMap) -> BTreeMap<&'static str, SpanStat> {
    let sampled = hists.iter().filter(|(_, h)| h.count() > 0);
    sampled.map(|(name, h)| (*name, h.stat())).collect()
}

/// RAII guard created by [`span!`]; on drop records the elapsed time as
/// one sample of the series of its name and appends it to the thread's
/// request log — for the open [`Scope`]s and, inside a trace, as a
/// [`SpanEvent`] with the counter delta observed while the span was open.
#[must_use = "binding the guard to `_name` keeps the span open for the scope"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    trace_base: Option<[u64; N_COUNTERS]>,
}

impl SpanGuard {
    /// Starts a span. Prefer the [`span!`] macro at call sites.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                name,
                start: None,
                trace_base: None,
            };
        }
        SpanGuard {
            name,
            start: Some(Instant::now()),
            trace_base: request::span_baseline(),
        }
    }

    /// Closes the span without recording it anywhere: for a span opened
    /// around work that turned out to be another thread's to finish.
    pub fn discard(mut self) {
        self.start = None;
    }
}

pub(crate) fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = saturating_ns(start.elapsed());
            record(self.name, ns);
            request::note_span(self.name, start, ns, self.trace_base.as_ref());
        }
    }
}

/// Opens a timing span for the rest of the enclosing scope:
/// `let _span = obs::span!("step3.search");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of the counter and series registries
/// ([`snapshot`]) — or, with the same shape, what one thread counted and
/// completed inside a [`Scope`].
///
/// All maps use sorted (`BTreeMap`) key order, so serialized snapshots are
/// byte-comparable across runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals keyed by [`Counter::name`]. Every counter is present,
    /// including zeros, so the key set is build-independent.
    pub counters: BTreeMap<&'static str, u64>,
    /// Exact aggregates of the series in `hists` that have samples.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Latency histograms keyed by series name (span names plus the
    /// explicitly recorded series).
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl Snapshot {
    /// Returns the delta of `self` relative to an `earlier` snapshot.
    ///
    /// Counter values and histogram buckets, counts and sums subtract;
    /// `min`/`max` are taken from `self` (extrema cannot be un-merged).
    /// Series with no samples since `earlier` are omitted, and `spans` is
    /// read off the remaining ones.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| {
                (
                    *name,
                    v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0)),
                )
            })
            .collect();
        let mut hists = BTreeMap::new();
        for (name, h) in &self.hists {
            let delta = match earlier.hists.get(name) {
                Some(before) => h.since(before),
                None => h.clone(),
            };
            if delta.count() > 0 {
                hists.insert(*name, delta);
            }
        }
        Snapshot {
            counters,
            spans: spans_of(&hists),
            hists,
        }
    }

    /// Counter total by [`Counter`], defaulting to 0.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    /// Appends the snapshot to `out` as a compact JSON object with stable
    /// key order.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            push_key(out, i, name);
            push_u64(out, *v);
        }
        out.push_str("},\"spans\":{");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            push_key(out, i, name);
            let _ = write!(
                out,
                "{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                s.count, s.total_ns, s.min_ns, s.max_ns
            );
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            push_key(out, i, name);
            h.write_summary_json(out);
        }
        out.push_str("}}");
    }

    /// Human-readable rendering of the snapshot (counters, then spans).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for (name, v) in &self.counters {
            if *v != 0 {
                out.push_str(&format!("  {name:<28} {v}\n"));
            }
        }
        out.push_str("spans (count / total / mean):\n");
        for (name, s) in &self.spans {
            out.push_str(&format!(
                "  {name:<28} {:>6} / {:>10} ns / {:>8} ns\n",
                s.count,
                s.total_ns,
                s.mean_ns()
            ));
        }
        out.push_str("hists (count / p50 / p99 / max):\n");
        for (name, h) in &self.hists {
            let q = |p: f64| h.quantile(p).unwrap_or(0);
            out.push_str(&format!(
                "  {name:<28} {:>6} / {:>8} ns / {:>8} ns / {:>8} ns\n",
                h.count(),
                q(0.5),
                q(0.99),
                h.max().unwrap_or(0)
            ));
        }
        out
    }
}

/// Takes a snapshot of all counters and series.
///
/// Flushes the calling thread's local cells first, so totals include all
/// work done on this thread and on any already-joined worker thread.
pub fn snapshot() -> Snapshot {
    flush_local();
    let counters = Counter::all()
        .map(|c| (c.name(), GLOBAL[c as usize].load(Ordering::Relaxed)))
        .collect();
    let hists = SERIES.lock().map(|s| s.clone()).unwrap_or_default();
    Snapshot {
        counters,
        spans: spans_of(&hists),
        hists,
    }
}

/// Zeroes all global counters, the calling thread's local cells and
/// series, and the series registry. Counts still held by *other* live
/// threads are unaffected until those threads flush.
pub fn reset() {
    let _ = LOCAL.try_with(|l| {
        for (cell, flushed) in l.cells.iter().zip(l.flushed.iter()) {
            cell.set(0);
            flushed.set(0);
        }
    });
    let _ = LOCAL_SERIES.try_with(|l| l.0.borrow_mut().clear());
    for global in &GLOBAL {
        global.store(0, Ordering::Relaxed);
    }
    if let Ok(mut series) = SERIES.lock() {
        series.clear();
    }
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

/// One derivation step in a rewrite's provenance chain: which transformation
/// kind fired, driven by which residue and source integrity constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceStep {
    /// Transformation kind (e.g. `"scope-reduction"`, `"join-elimination"`).
    pub kind: &'static str,
    /// Residue id of the form `r<index>@<anchor-pred>`, when a compiled
    /// residue drove the step.
    pub residue: Option<String>,
    /// Name of the source integrity constraint (or view), when known.
    pub ic: Option<String>,
    /// Free-form description of what the step changed.
    pub detail: String,
}

impl ProvenanceStep {
    /// The synthetic step carried by the unmodified original query, so every
    /// equivalent query — including the input itself — has a non-empty chain.
    pub fn original() -> ProvenanceStep {
        ProvenanceStep {
            kind: "original",
            residue: None,
            ic: None,
            detail: "input query, no transformation applied".to_string(),
        }
    }
}

impl fmt::Display for ProvenanceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(r) = &self.residue {
            write!(f, " via {r}")?;
        }
        if let Some(ic) = &self.ic {
            write!(f, " [{ic}]")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// The full derivation chain for one equivalent query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Derivation steps in application order.
    pub steps: Vec<ProvenanceStep>,
}

impl Provenance {
    /// Chain for the unmodified original query (one synthetic step).
    pub fn original() -> Provenance {
        Provenance {
            steps: vec![ProvenanceStep::original()],
        }
    }

    /// Builds a chain from derivation steps; an empty step list denotes the
    /// original query and maps to [`Provenance::original`].
    pub fn from_steps(steps: Vec<ProvenanceStep>) -> Provenance {
        if steps.is_empty() {
            Provenance::original()
        } else {
            Provenance { steps }
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}. {step}", i + 1)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSON writing: one compact form, appended to the caller's buffer
// ---------------------------------------------------------------------------

/// Escapes and quotes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// A [`fmt::Write`] that appends what is written to it to the string as
/// the inside of a JSON string literal, so a `Display` value is escaped
/// while it is formatted. Every escape is of one character and a
/// `write_str` piece is whole characters, so where the pieces break does
/// not change the output.
pub struct JsonEscape<'a>(pub &'a mut String);

impl fmt::Write for JsonEscape<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Appends `s` escaped as JSON string content: `"`, `\`, `\n`, `\r` and
/// `\t` by their short escapes, any other byte below 0x20 as `\u00XX`.
/// Runs with nothing to escape are copied in one piece.
///
/// One pass, byte by byte: what reaches it is mostly the few-byte pieces
/// a `Display` impl writes, where this beats scanning in wide chunks.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so both slice ends fall on character boundaries.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends the `i`-th key of an object: a separating comma after the
/// first, the quoted name and the colon.
fn push_key(out: &mut String, i: usize, name: &str) {
    if i > 0 {
        out.push(',');
    }
    push_json_string(out, name);
    out.push(':');
}

/// Appends `v` in decimal to `out`, without going through `fmt`.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Removes insignificant whitespace from JSON text. Everything this
/// workspace writes is compact already, so on its own output this is the
/// identity; it is for JSON text from elsewhere. String literals are
/// copied verbatim, a run at a time.
pub fn json_compact(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    // Runs start and end at ASCII bytes (or the end of the text), so
    // every slice below falls on a character boundary.
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                // An escape at the very end of unterminated text.
                let end = i.min(bytes.len());
                out.push_str(&src[start..end]);
            }
            b if b.is_ascii_whitespace() => i += 1,
            _ => {
                while i < bytes.len() && bytes[i] != b'"' && !bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                out.push_str(&src[start..i]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests in this binary: they all mutate the global registry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn json(snap: &Snapshot) -> String {
        let mut out = String::new();
        snap.write_json(&mut out);
        out
    }

    #[test]
    fn counters_merge_from_scoped_workers() {
        let _g = lock();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        bump(Counter::UnifyAttempts);
                    }
                    // Scope exit only waits for the closure to return, not
                    // for TLS destructors, so flush before returning.
                    flush_local();
                });
            }
        });
        bump(Counter::UnifyAttempts);
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::UnifyAttempts), 401);
    }

    #[test]
    fn counters_are_declared_in_name_order() {
        for pair in COUNTER_NAMES.windows(2) {
            assert!(pair[0] < pair[1], "declared out of name order: {pair:?}");
        }
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = lock();
        reset();
        set_enabled(false);
        bump(Counter::SubsumeChecks);
        {
            let _s = span!("test.disabled");
        }
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::SubsumeChecks), 0);
        assert!(!snap.spans.contains_key("test.disabled"));
    }

    #[test]
    fn span_guard_records_count_and_extrema() {
        let _g = lock();
        reset();
        for _ in 0..3 {
            let _s = span!("test.span");
        }
        let snap = snapshot();
        let stat = snap.spans["test.span"];
        assert_eq!(stat.count, 3);
        assert!(stat.min_ns <= stat.max_ns);
        assert!(stat.total_ns >= stat.max_ns);
    }

    #[test]
    fn snapshot_json_has_stable_sorted_keys() {
        let _g = lock();
        reset();
        bump(Counter::SearchLevels);
        let text = json(&snapshot());
        let a = text.find("\"eval.join_input_tuples\"").unwrap();
        let b = text.find("\"search.levels\"").unwrap();
        let c = text.find("\"unify.attempts\"").unwrap();
        assert!(a < b && b < c, "counter keys must be sorted");
        assert_eq!(text, json(&snapshot()));
    }

    #[test]
    fn since_subtracts_counters_and_span_counts() {
        let _g = lock();
        reset();
        add(Counter::ResiduesApplied, 5);
        {
            let _s = span!("test.delta");
        }
        let before = snapshot();
        add(Counter::ResiduesApplied, 7);
        {
            let _s = span!("test.delta");
        }
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter(Counter::ResiduesApplied), 7);
        assert_eq!(delta.spans["test.delta"].count, 1);
        assert_eq!(delta.counter(Counter::SearchLevels), 0);
    }

    #[test]
    fn provenance_chain_renders_text() {
        let step = ProvenanceStep {
            kind: "scope-reduction",
            residue: Some("r3@faculty".into()),
            ic: Some("IC4".into()),
            detail: "added not dept(x)".into(),
        };
        let text = Provenance::from_steps(vec![step]).to_string();
        assert_eq!(
            text,
            "1. scope-reduction via r3@faculty [IC4]: added not dept(x)"
        );
        assert_eq!(Provenance::from_steps(Vec::new()).steps[0].kind, "original");
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(
            json_string("\r\t\u{1}\u{1f} é"),
            "\"\\r\\t\\u0001\\u001f é\""
        );
    }

    #[test]
    fn snapshot_json_is_compact() {
        let mut h = Histogram::new();
        h.record(7);
        let snap = Snapshot {
            counters: [("a.b", 1), ("c", 0)].into(),
            spans: spans_of(&[("s", h.clone())].into()),
            hists: [("s", h), ("t", Histogram::new())].into(),
        };
        assert_eq!(
            json(&snap),
            concat!(
                r#"{"counters":{"a.b":1,"c":0},"#,
                r#""spans":{"s":{"count":1,"total_ns":7,"min_ns":7,"max_ns":7}},"#,
                r#""hists":{"s":{"count":1,"p50":7,"p90":7,"p99":7,"max":7},"#,
                r#""t":{"count":0,"p50":null,"p90":null,"p99":null,"max":null}}}"#
            )
        );
        assert_eq!(json_compact(&json(&snap)), json(&snap));
    }

    #[test]
    fn json_compact_preserves_strings() {
        let src = "{\n  \"a b\": \"x \\\" y\",\n  \"n\": [1, 2],\t\"é \\\\\": null\n}";
        assert_eq!(
            json_compact(src),
            r#"{"a b":"x \" y","n":[1,2],"é \\":null}"#
        );
        // Already compact text comes back unchanged; so does a string
        // cut off inside an escape.
        assert_eq!(json_compact(r#"{"k":"v w"}"#), r#"{"k":"v w"}"#);
        assert_eq!(json_compact("[ \"ab\\"), "[\"ab\\");
    }

    #[test]
    fn spans_merge_from_scoped_workers() {
        let _g = lock();
        reset();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..5 {
                        let _s = span!("test.span.merge");
                    }
                    flush_local();
                });
            }
        });
        {
            let _s = span!("test.span.merge");
        }
        let stat = snapshot().spans["test.span.merge"];
        assert_eq!(stat.count, 16);
        assert!(stat.min_ns <= stat.max_ns && stat.total_ns >= stat.max_ns);
    }

    #[test]
    fn spans_record_into_same_named_histograms() {
        let _g = lock();
        reset();
        for _ in 0..5 {
            let _s = span!("test.hist.span");
        }
        let snap = snapshot();
        let h = &snap.hists["test.hist.span"];
        assert_eq!(h.count(), 5);
        assert!(h.quantile(0.5).is_some());
        assert!(json(&snap).contains("\"test.hist.span\""));
    }

    #[test]
    fn histograms_merge_from_scoped_workers_byte_identically() {
        let _g = lock();
        reset();
        // Four workers record disjoint deterministic samples...
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..250u64 {
                        record_hist("test.hist.merge", (t * 250 + i) * 17 % 9973);
                    }
                    flush_local();
                });
            }
        });
        let parallel = snapshot().hists["test.hist.merge"].clone();
        reset();
        // ...and one thread records the union sequentially.
        for v in 0..1000u64 {
            record_hist("test.hist.merge", v * 17 % 9973);
        }
        let sequential = snapshot().hists["test.hist.merge"].clone();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn disabled_recording_skips_histograms_and_traces() {
        let _g = lock();
        reset();
        set_enabled(false);
        record_hist("test.hist.disabled", 42);
        {
            let _s = span!("test.hist.disabled");
        }
        set_enabled(true);
        let snap = snapshot();
        assert!(!snap.hists.contains_key("test.hist.disabled"));
    }

    #[test]
    fn hist_touch_pins_the_key_with_zero_samples() {
        let _g = lock();
        reset();
        hist_touch("test.hist.touched");
        let snap = snapshot();
        let h = &snap.hists["test.hist.touched"];
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), None);
    }
}
