//! The JSON-lines-over-TCP front end.
//!
//! One request per line, one response per line, `std::net` only. A
//! connection may issue any number of requests. The serving loop answers
//! every request that cannot block itself: control requests (`ping`,
//! `metrics`, `prepare`, `reload_ic`, `shutdown`, …), the writes
//! (`create`, `link`, `persist`), and a rewrite-only `query` whose exact
//! text the session's plan cache has finished under its current
//! generation. Every other `query` — a miss, a rebind, the template hit
//! that finishes an instance, anything with `"execute":true` — passes
//! through the admission pool. Both write the same reply: a loop answer
//! differs from a pooled one only in its timing, its trace id and an
//! admission wait of 0, and leaves no `serve.wait` sample, as it was
//! never queued.
//!
//! Request shapes (`op` selects the operation):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"query","session":"default","oql":"select ...","timeout_ms":250}
//! {"op":"query","session":"default","oql":"...","trace":true,"execute":true}
//! {"op":"prepare","session":"s","university":true,"ic":"ic IC4: ..."}
//! {"op":"prepare","session":"s","university":true,"data":true}
//! {"op":"prepare","session":"s","schema":"<ODL source>"}
//! {"op":"reload_ic","session":"s","ic":"ic IC4: ..."}
//! {"op":"create","session":"s","class":"Person","attrs":{"name":"x","age":30}}
//! {"op":"link","session":"s","from":3,"rel":"takes","to":9}
//! {"op":"persist","session":"s"}
//! {"op":"metrics"}
//! {"op":"slowlog"}
//! {"op":"shutdown"}
//! ```
//!
//! `create` and `link` mutate the session's bound object base; when the
//! base was opened from a store directory (`sqo serve --store-path`)
//! the mutation is WAL-logged before it is acknowledged, and `persist`
//! forces a compact snapshot so the next recovery replays a short tail.
//!
//! Every `query` gets a deterministic trace id (`session:generation:seq`)
//! and is traced end to end: admission wait, plan-cache lookup, search,
//! and (with `"execute":true` on a session with bound data) plan
//! execution all appear as span events, returned when the request set
//! `"trace":true` and recorded to the slow-query log when the service
//! time exceeds the threshold. Responses are `{"ok":true,...}` or
//! `{"ok":false,"error":{"kind":...,"message":...}}`; see
//! `schemas/serve.schema.json` for the full envelope.

use crate::admission::{Pool, Task};
use crate::json::{self, Json};
use crate::registry::{SessionRegistry, SessionSpec};
use crate::slowlog::{SlowEntry, SlowLog};
use crate::ServeError;
use sqo_core::{CacheOutcome, OptimizationReport, PreparedOptimizer};
use sqo_obs as obs;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Histogram series pinned into every `metrics` reply (with zero samples
/// until recorded), so consumers see a stable key set from the first
/// request on.
const PINNED_HISTS: [&str; 8] = [
    "serve.request",
    "serve.serialize",
    "serve.wait",
    "cache.lookup",
    "pipeline.optimize",
    "step3.search",
    "objdb.execute",
    "store.recover",
];

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Maximum queued (admitted but unstarted) queries before shedding.
    pub queue_capacity: usize,
    /// Deadline applied when a request carries no `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Service-time threshold above which a query enters the slow log.
    pub slow_ms: u64,
    /// Slow-log ring-buffer capacity (newest entries kept).
    pub slowlog_capacity: usize,
    /// When set, every slow-log entry is also appended to this file as a
    /// JSON line.
    pub slowlog_path: Option<String>,
    /// Largest accepted request line in bytes; a longer line is
    /// answered with `bad_request` and the connection is closed,
    /// bounding per-connection memory.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue_capacity: 64,
            default_timeout_ms: 10_000,
            slow_ms: 250,
            slowlog_capacity: 128,
            slowlog_path: None,
            max_frame_bytes: 1 << 20,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) pool: Pool,
    pub(crate) stop: AtomicBool,
    pub(crate) local_addr: SocketAddr,
    pub(crate) workers: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) default_timeout: Duration,
    pub(crate) slowlog: Arc<SlowLog>,
    pub(crate) max_frame_bytes: usize,
}

/// A bound (but not yet running) server.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) shared: Arc<Shared>,
}

impl Server {
    /// Binds `cfg.addr` and spawns the worker pool. Serving needs a Unix
    /// readiness poller (`poll(2)`, the `poll` module); on any
    /// other target this returns [`std::io::ErrorKind::Unsupported`].
    pub fn bind(cfg: ServerConfig, registry: Arc<SessionRegistry>) -> std::io::Result<Server> {
        if cfg!(not(unix)) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "sqo serve requires a Unix poller (poll(2))",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let slowlog = SlowLog::new(
            cfg.slowlog_capacity,
            cfg.slow_ms,
            cfg.slowlog_path.as_deref(),
        )?;
        for name in PINNED_HISTS {
            obs::hist_touch(name);
        }
        let shared = Arc::new(Shared {
            registry,
            pool: Pool::new(cfg.workers, cfg.queue_capacity),
            stop: AtomicBool::new(false),
            local_addr,
            workers: cfg.workers.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            default_timeout: Duration::from_millis(cfg.default_timeout_ms.max(1)),
            slowlog: Arc::new(slowlog),
            max_frame_bytes: cfg.max_frame_bytes.max(1024),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with a `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Serves until a `shutdown` request has been answered and flushed:
    /// one readiness loop over every connection, `query` work on the
    /// worker pool.
    pub fn run(self) -> std::io::Result<()> {
        #[cfg(unix)]
        return crate::event_loop::run(self.listener, self.shared);
        #[cfg(not(unix))]
        unreachable!("Server::bind fails off Unix")
    }
}

pub(crate) fn error_response(e: &ServeError) -> String {
    format!(
        r#"{{"ok":false,"error":{{"kind":{},"message":{}}}}}"#,
        obs::json_string(e.kind()),
        obs::json_string(&e.message())
    )
}

/// What a request line routed to.
pub(crate) enum Routed {
    /// Answered on the loop: control ops, writes, finished rewrite-only
    /// texts and every error path.
    Done(String),
    /// A `query` for the pool, not yet submitted: the event loop
    /// reserves its response slot, then calls [`submit_job`].
    Query(Box<QueryJob>),
    /// `shutdown`: the stop flag is already set; write this response,
    /// then stop serving.
    Shutdown(String),
}

/// Routes one request line on the serving loop. A panic in whatever the
/// loop answers itself costs that request only, as a worker's does: it
/// is answered `internal_error` and counted in `serve.worker_panic`, and
/// the loop goes on serving.
pub(crate) fn route(shared: &Arc<Shared>, line: &str) -> Routed {
    caught(|| match route_inner(shared, line) {
        Ok(routed) => routed,
        Err(e) => Routed::Done(error_response(&e)),
    })
}

/// `answer()`, or `internal_error` when it panics. What it touches is
/// behind poison-tolerant locks, so serving on after the unwind is sound.
fn caught(answer: impl FnOnce() -> Routed) -> Routed {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(answer)).unwrap_or_else(|_| {
        obs::bump(obs::Counter::ServeWorkerPanic);
        Routed::Done(error_response(&ServeError::Internal))
    })
}

fn route_inner(shared: &Arc<Shared>, line: &str) -> Result<Routed, ServeError> {
    let req = json::parse(line).map_err(ServeError::BadRequest)?;
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing \"op\"".into()))?;
    match op {
        "ping" => Ok(Routed::Done(r#"{"ok":true,"op":"ping"}"#.to_string())),
        "metrics" => Ok(Routed::Done(metrics_response(shared))),
        "slowlog" => Ok(Routed::Done(slowlog_response(shared))),
        "prepare" => prepare(shared, &req).map(Routed::Done),
        "reload_ic" => reload_ic(shared, &req).map(Routed::Done),
        "create" => create(shared, &req).map(Routed::Done),
        "link" => link(shared, &req).map(Routed::Done),
        "persist" => persist(shared, &req).map(Routed::Done),
        "query" => query(shared, &req),
        "shutdown" => {
            // The event loop exits only after the response line is on
            // the wire.
            shared.stop.store(true, Ordering::Release);
            Ok(Routed::Shutdown(
                r#"{"ok":true,"op":"shutdown"}"#.to_string(),
            ))
        }
        other => Err(ServeError::BadRequest(format!("unknown op {other:?}"))),
    }
}

fn session_name(req: &Json) -> Result<&str, ServeError> {
    match req.get("session") {
        None => Ok("default"),
        Some(v) => v
            .as_str()
            .ok_or_else(|| ServeError::BadRequest("\"session\" must be a string".into())),
    }
}

/// Appends the `"hist"` section of the metrics reply: per-series quantile
/// summaries keyed by display name, in sorted (deterministic) order.
/// Request-level `serve.*` series keep their name and sort first; every
/// other series is a pipeline span and gets a `stage/` prefix.
fn write_hist_section(out: &mut String, snapshot: &obs::Snapshot) {
    let is_serve = |name: &&str| name.starts_with("serve.");
    let serve = snapshot.hists.iter().filter(|(n, _)| is_serve(n));
    let stages = snapshot.hists.iter().filter(|(n, _)| !is_serve(n));
    out.push('{');
    for (i, (name, h)) in serve.chain(stages).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if is_serve(name) { "\"" } else { "\"stage/" });
        let _ = obs::JsonEscape(out).write_str(name);
        out.push_str("\":");
        h.write_summary_json(out);
    }
    out.push('}');
}

fn metrics_response(shared: &Arc<Shared>) -> String {
    let sessions: Vec<String> = shared
        .registry
        .names()
        .into_iter()
        .filter_map(|name| shared.registry.get(&name))
        .map(|s| {
            format!(
                r#"{{"name":{},"generation":{},"cached_templates":{},"cached_instances":{},"store_generation":{}}}"#,
                obs::json_string(s.name()),
                s.prepared().generation(),
                s.cache().len(),
                s.cache().instance_count(),
                s.store_generation()
            )
        })
        .collect();
    let snapshot = obs::snapshot();
    let mut out = format!(
        r#"{{"ok":true,"op":"metrics","workers":{},"queue_capacity":{},"queue_depth":{},"queue_depth_hwm":{},"sessions":[{}],"hist":"#,
        shared.workers,
        shared.queue_capacity,
        shared.pool.queue_depth(),
        shared.pool.queue_depth_hwm(),
        sessions.join(","),
    );
    write_hist_section(&mut out, &snapshot);
    out.push_str(",\"stats\":");
    snapshot.write_json(&mut out);
    out.push('}');
    out
}

fn slowlog_response(shared: &Arc<Shared>) -> String {
    let entries = shared.slowlog.entries();
    format!(
        r#"{{"ok":true,"op":"slowlog","slow_threshold_ms":{},"count":{},"entries":[{}]}}"#,
        shared.slowlog.threshold_ns() / 1_000_000,
        entries.len(),
        entries.join(",")
    )
}

fn prepare(shared: &Arc<Shared>, req: &Json) -> Result<String, ServeError> {
    let name = session_name(req)?;
    let spec = if req.get("university").and_then(Json::as_bool) == Some(true) {
        SessionSpec::University
    } else {
        let src = req.get("schema").and_then(Json::as_str).ok_or_else(|| {
            ServeError::BadRequest("need \"university\":true or \"schema\"".into())
        })?;
        SessionSpec::Odl(src.to_string())
    };
    let ic = req.get("ic").and_then(Json::as_str);
    let generation = shared.registry.prepare(name, spec, ic)?;
    if req.get("data").and_then(Json::as_bool) == Some(true) {
        let session = shared
            .registry
            .get(name)
            .ok_or_else(|| ServeError::UnknownSession(name.to_string()))?;
        session.attach_university_data()?;
    }
    Ok(format!(
        r#"{{"ok":true,"op":"prepare","session":{},"generation":{generation}}}"#,
        obs::json_string(name)
    ))
}

fn reload_ic(shared: &Arc<Shared>, req: &Json) -> Result<String, ServeError> {
    let name = session_name(req)?;
    let ic = req
        .get("ic")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing \"ic\"".into()))?;
    let session = shared
        .registry
        .get(name)
        .ok_or_else(|| ServeError::UnknownSession(name.to_string()))?;
    let generation = session.reload_ic(ic)?;
    Ok(format!(
        r#"{{"ok":true,"op":"reload_ic","session":{},"generation":{generation}}}"#,
        obs::json_string(name)
    ))
}

/// Resolve the session named in `req` and its bound object base, or a
/// `bad_request` explaining that the write op needs attached data.
fn session_with_data(
    shared: &Arc<Shared>,
    req: &Json,
    op: &str,
) -> Result<
    (
        Arc<crate::registry::Session>,
        Arc<std::sync::Mutex<sqo_objdb::ObjectDb>>,
    ),
    ServeError,
> {
    let name = session_name(req)?;
    let session = shared
        .registry
        .get(name)
        .ok_or_else(|| ServeError::UnknownSession(name.to_string()))?;
    let db = session.data().ok_or_else(|| {
        ServeError::BadRequest(format!(
            "\"{op}\" requires bound data (prepare with \"data\":true or serve with --store-path)"
        ))
    })?;
    Ok((session, db))
}

/// Convert a scalar JSON attribute value to an object-base value.
/// Whole numbers within `i64` range become `Int` (the object layer
/// coerces to `Real` where the schema declares a float); whole numbers
/// beyond `i64` range stay `Real` rather than silently saturating;
/// OIDs must be sent as `{"oid":N}`.
fn json_to_value(v: &Json) -> Result<sqo_objdb::Value, ServeError> {
    use sqo_objdb::{Oid, Value};
    // Exact f64 bounds of i64: -2^63 is representable, 2^63 is the
    // first whole value that is not (as i64::MAX rounds up to it).
    const I64_MIN_F: f64 = i64::MIN as f64;
    Ok(match v {
        Json::Bool(b) => Value::Bool(*b),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Num(n) if n.fract() == 0.0 && *n >= I64_MIN_F && *n < -I64_MIN_F => {
            Value::Int(*n as i64)
        }
        Json::Num(n) => Value::Real(*n),
        Json::Obj(m) => match m.get("oid").and_then(Json::as_u64) {
            Some(oid) if m.len() == 1 => Value::Obj(Oid(oid)),
            _ => {
                return Err(ServeError::BadRequest(
                    "object attribute values must be {\"oid\":N}".into(),
                ))
            }
        },
        other => {
            return Err(ServeError::BadRequest(format!(
                "unsupported attribute value {other:?}"
            )))
        }
    })
}

/// `create`: instantiate a class object with the given attributes on
/// the session's bound object base. Acknowledged only after the write
/// is WAL-logged (when the base is store-backed).
fn create(shared: &Arc<Shared>, req: &Json) -> Result<String, ServeError> {
    let (session, db) = session_with_data(shared, req, "create")?;
    let class = req
        .get("class")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing \"class\"".into()))?;
    let mut attrs: Vec<(String, sqo_objdb::Value)> = Vec::new();
    if let Some(obj) = req.get("attrs") {
        let Json::Obj(m) = obj else {
            return Err(ServeError::BadRequest("\"attrs\" must be an object".into()));
        };
        for (k, v) in m {
            attrs.push((k.clone(), json_to_value(v)?));
        }
    }
    let mut db = db.lock().unwrap_or_else(|e| e.into_inner());
    let borrowed: Vec<(&str, sqo_objdb::Value)> =
        attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let oid = db
        .create(class, borrowed)
        .map_err(|e| ServeError::BadRequest(e.to_string()))?;
    Ok(format!(
        r#"{{"ok":true,"op":"create","session":{},"oid":{},"store_generation":{}}}"#,
        obs::json_string(session.name()),
        oid.0,
        db.store_generation()
    ))
}

/// `link`: connect two objects through a relationship on the session's
/// bound object base.
fn link(shared: &Arc<Shared>, req: &Json) -> Result<String, ServeError> {
    let (session, db) = session_with_data(shared, req, "link")?;
    let rel = req
        .get("rel")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing \"rel\"".into()))?;
    let from = req
        .get("from")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::BadRequest("missing \"from\"".into()))?;
    let to = req
        .get("to")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::BadRequest("missing \"to\"".into()))?;
    let mut db = db.lock().unwrap_or_else(|e| e.into_inner());
    db.link(sqo_objdb::Oid(from), rel, sqo_objdb::Oid(to))
        .map_err(|e| ServeError::BadRequest(e.to_string()))?;
    Ok(format!(
        r#"{{"ok":true,"op":"link","session":{},"store_generation":{}}}"#,
        obs::json_string(session.name()),
        db.store_generation()
    ))
}

/// `persist`: force a compact snapshot of the session's durable store
/// and truncate its WALs.
fn persist(shared: &Arc<Shared>, req: &Json) -> Result<String, ServeError> {
    let (session, db) = session_with_data(shared, req, "persist")?;
    let db = db.lock().unwrap_or_else(|e| e.into_inner());
    let report = db
        .persist()
        .map_err(|e| ServeError::BadRequest(e.to_string()))?
        .ok_or_else(|| {
            ServeError::BadRequest(
                "\"persist\" requires a durable store (serve with --store-path)".into(),
            )
        })?;
    Ok(format!(
        r#"{{"ok":true,"op":"persist","session":{},"snapshot_bytes":{},"store_generation":{}}}"#,
        obs::json_string(session.name()),
        report.snapshot_bytes,
        report.generation
    ))
}

/// A validated `query` request, admitted-shape but not yet submitted.
pub(crate) struct QueryJob {
    pub(crate) name: String,
    pub(crate) oql: String,
    pub(crate) deadline: Instant,
    pub(crate) want_trace: bool,
    pub(crate) want_execute: bool,
    pub(crate) session: Arc<crate::registry::Session>,
    pub(crate) trace_id: String,
}

/// Validates a `query` request into a [`QueryJob`]. Counts the request
/// (`serve.requests`) whether or not validation succeeds.
fn parse_query(shared: &Arc<Shared>, req: &Json) -> Result<QueryJob, ServeError> {
    obs::add(obs::Counter::ServeRequests, 1);
    let name = session_name(req)?.to_string();
    let oql = req
        .get("oql")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing \"oql\"".into()))?
        .to_string();
    let timeout = req
        .get("timeout_ms")
        .and_then(Json::as_u64)
        .map(Duration::from_millis)
        .unwrap_or(shared.default_timeout);
    let want_trace = req.get("trace").and_then(Json::as_bool) == Some(true);
    let want_execute = req.get("execute").and_then(Json::as_bool) == Some(true);
    let session = shared
        .registry
        .get(&name)
        .ok_or_else(|| ServeError::UnknownSession(name.clone()))?;
    if want_execute && session.data().is_none() {
        return Err(ServeError::BadRequest(
            "\"execute\":true requires prepared data (prepare with \"data\":true)".into(),
        ));
    }
    let trace_id = session.next_trace_id();
    Ok(QueryJob {
        name,
        oql,
        deadline: Instant::now() + timeout,
        want_trace,
        want_execute,
        session,
        trace_id,
    })
}

/// A `query` request: answered here when it cannot block — its deadline
/// has passed, or it executes nothing and its text is a finished instance
/// of the session's plan cache — and otherwise handed back for the pool.
fn query(shared: &Arc<Shared>, req: &Json) -> Result<Routed, ServeError> {
    let job = parse_query(shared, req)?;
    if job.deadline <= Instant::now() {
        obs::bump(obs::Counter::ServeDeadlineExceeded);
        return Err(ServeError::DeadlineExceeded);
    }
    if !job.want_execute {
        if let Some(line) = answer_finished(&job, &shared.slowlog) {
            return Ok(Routed::Done(line));
        }
    }
    Ok(Routed::Query(Box::new(job)))
}

/// The reply half of an admitted query: called once, on the worker, with
/// the response line. A worker that panics drops it uncalled mid-unwind;
/// it then answers `internal_error` itself, so the request's slot is
/// not left waiting for its deadline. A task dropped unrun (expired in
/// the queue, pool shut down) stays silent: the loop's deadline sweep
/// answers it.
pub(crate) struct Reply(Option<Box<dyn FnOnce(String) + Send>>);

impl Reply {
    pub(crate) fn new(finish: impl FnOnce(String) + Send + 'static) -> Reply {
        Reply(Some(Box::new(finish)))
    }

    fn send(mut self, resp: String) {
        if let Some(finish) = self.0.take() {
            finish(resp);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(finish) = self.0.take() {
            if std::thread::panicking() {
                finish(error_response(&ServeError::Internal));
            }
        }
    }
}

/// Submits the job to the worker pool; `reply` gets the final response
/// line (success, `optimize_error`, or `internal_error` after a panic)
/// on the worker. Returns `false` when the queue shed the request —
/// `reply` is never called then.
pub(crate) fn submit_job(shared: &Arc<Shared>, job: QueryJob, reply: Reply) -> bool {
    let slowlog = Arc::clone(&shared.slowlog);
    let deadline = job.deadline;
    shared.pool.submit(Task {
        deadline,
        submitted: Instant::now(),
        run: Box::new(move |wait| reply.send(run_query(&job, &slowlog, wait))),
    })
}

/// Answers a rewrite-only query whose text the session's plan cache has
/// finished, on the calling thread: what [`run_query`] would answer, with
/// an admission wait of 0 and no `serve.wait` sample, as it was never
/// queued. `None` leaves any other text to the pool, whose worker probes
/// again: the text may be finished by the time it runs.
fn answer_finished(job: &QueryJob, slowlog: &SlowLog) -> Option<String> {
    obs::trace_begin(job.trace_id.clone());
    obs::trace_event("serve.admission_wait", 0, 0);
    let prep = job.session.prepared();
    let started = Instant::now();
    let Some(report) = prep.finished_text(job.session.cache(), &job.oql) else {
        drop(obs::trace_end());
        return None;
    };
    let answered = Ok((report, CacheOutcome::Hit, None));
    Some(write_reply(job, &prep, started, answered, slowlog))
}

/// Executes one admitted query on a worker thread and returns its reply
/// line: opens the trace, optimizes (and optionally executes) under it,
/// and writes the reply. The caller publishes the thread's counters
/// before the line goes on the wire.
fn run_query(job: &QueryJob, slowlog: &SlowLog, wait: Duration) -> String {
    let session = &job.session;
    obs::trace_begin(job.trace_id.clone());
    let wait_ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
    obs::trace_event("serve.admission_wait", 0, wait_ns);
    let prep = session.prepared();
    let started = Instant::now();
    let answered = match prep.optimize_cached(session.cache(), &job.oql) {
        Ok((report, outcome)) => {
            let mut exec = None;
            let mut exec_err = None;
            if job.want_execute {
                if report.is_contradiction() {
                    // Step 4 of the paper: a refuted query needs no
                    // evaluation at all — zero answers, no plan.
                    exec = Some((None, None, 0));
                } else if let Some(db) = session.data() {
                    let db = db.lock().unwrap_or_else(|e| e.into_inner());
                    match session
                        .check_views(&prep, &db)
                        .map(|()| report.best_plan(&db))
                    {
                        Ok(Some((idx, eq, costs))) => match sqo_objdb::execute(&db, &eq.datalog) {
                            Ok((rows, _)) => {
                                exec = Some((Some(idx), Some(costs[idx]), rows.len()));
                            }
                            Err(e) => exec_err = Some(ServeError::Optimize(e.to_string())),
                        },
                        Ok(None) => {
                            let e = "no equivalent plan to execute".to_string();
                            exec_err = Some(ServeError::Optimize(e));
                        }
                        Err(e) => exec_err = Some(e),
                    }
                }
            }
            match exec_err {
                Some(e) => Err(e),
                None => Ok((report, outcome, exec)),
            }
        }
        Err(e) => Err(ServeError::Optimize(e.to_string())),
    };
    write_reply(job, &prep, started, answered, slowlog)
}

/// What executing a query's chosen plan gave: the plan's index and cost
/// (`None` for a refuted query, which runs no plan) and the answer count.
type Executed = (Option<usize>, Option<f64>, usize);

/// The reply writer of every answered query, on the loop or a worker:
/// records the request latency histogram, closes the trace, writes the
/// reply line, and files a slow-log entry past the threshold.
fn write_reply(
    job: &QueryJob,
    prep: &PreparedOptimizer,
    started: Instant,
    answered: Result<(OptimizationReport, CacheOutcome, Option<Executed>), ServeError>,
    slowlog: &SlowLog,
) -> String {
    let elapsed = started.elapsed();
    let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    obs::record_hist("serve.request", elapsed_ns);
    let trace = obs::trace_end();
    match answered {
        Ok((report, outcome, exec)) => {
            // The envelope, the report and its `stats` are written
            // straight into the one reply line. Timed outside the trace
            // and every scope: no reply's `stats` include it.
            let writing = Instant::now();
            let mut line = format!(
                r#"{{"ok":true,"op":"query","session":{},"generation":{},"cache":"{}","elapsed_us":{},"trace_id":{}"#,
                obs::json_string(&job.name),
                prep.generation(),
                outcome.label(),
                elapsed.as_micros(),
                obs::json_string(&job.trace_id),
            );
            if let Some((plan_index, plan_cost, answers)) = exec {
                let idx = plan_index.map_or("null".to_string(), |i| i.to_string());
                let cost = plan_cost.map_or("null".to_string(), |c| format!("{c:.1}"));
                let _ = write!(
                    line,
                    r#","plan_index":{idx},"plan_cost":{cost},"answers":{answers}"#
                );
            }
            if let (Some(t), true) = (&trace, job.want_trace) {
                line.push_str(r#","trace":"#);
                t.write_events_json(&mut line);
            }
            line.push_str(r#","report":"#);
            let report_at = line.len();
            report.write_json(&mut line);
            let report_end = line.len();
            line.push('}');
            let written = writing.elapsed().as_nanos();
            obs::record_hist(
                "serve.serialize",
                u64::try_from(written).unwrap_or(u64::MAX),
            );
            if slowlog.is_slow(elapsed_ns) {
                let verdict = if report.is_contradiction() {
                    "contradiction"
                } else {
                    "equivalents"
                };
                slowlog.record(&SlowEntry {
                    trace_id: &job.trace_id,
                    session: job.session.name(),
                    template_hash: report.datalog.canonical_template().hash,
                    verdict,
                    cache: outcome.label(),
                    plan_cost: exec.and_then(|(_, cost, _)| cost),
                    elapsed_ns,
                    trace: trace.as_ref(),
                    explain: &line[report_at..report_end],
                });
            }
            line
        }
        Err(e) => error_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic in an answer the loop gives itself is that request's
    /// `internal_error`, counted as a caught panic.
    #[test]
    fn a_panicking_loop_answer_is_an_internal_error() {
        let scope = obs::Scope::enter();
        let routed = caught(|| panic!("injected loop panic"));
        let counted = scope.finish();
        let Routed::Done(line) = routed else {
            panic!("a caught panic is answered at once");
        };
        assert_eq!(line, error_response(&ServeError::Internal));
        assert_eq!(counted.counter(obs::Counter::ServeWorkerPanic), 1);
    }
}
