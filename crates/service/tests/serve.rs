//! Wire-level tests for the serving subsystem.
//!
//! Tests assert on obs counter deltas (process-global), so every test in
//! this binary serializes through one lock.

use sqo_core::SemanticOptimizer;
use sqo_obs as obs;
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const IC4: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";

/// Starts a university server on an ephemeral port; returns its address.
/// The server thread exits when a `shutdown` request arrives.
fn start_server(workers: usize, queue: usize) -> SocketAddr {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity: queue,
            default_timeout_ms: 10_000,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run().unwrap());
    addr
}

/// Sends each line on one connection and returns the parsed responses.
fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    lines
        .iter()
        .map(|l| {
            writeln!(stream, "{l}").unwrap();
            stream.flush().unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            json::parse(&resp).unwrap()
        })
        .collect()
}

fn shutdown(addr: SocketAddr) {
    let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
}

fn query_line(oql: &str) -> String {
    format!(r#"{{"op":"query","oql":{}}}"#, obs::json_string(oql))
}

/// The `error.kind` of a failed response.
fn error_kind(resp: &Json) -> Option<&str> {
    resp.get("error")?.get("kind")?.as_str()
}

/// The rewrite OQL strings of a wire `query` response.
fn wire_rewrites(resp: &Json) -> Vec<String> {
    resp.get("report")
        .and_then(|r| r.get("equivalents"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|e| e.get("changed").and_then(Json::as_bool) == Some(true))
        .filter_map(|e| e.get("oql").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn served_rewrites_match_the_one_shot_cli_path() {
    let _g = lock();
    let addr = start_server(2, 16);
    let oql = "select x.name from x in Person where x.age < 27";
    let resps = roundtrip(addr, &[query_line(oql), query_line(oql)]);
    shutdown(addr);

    assert_eq!(resps[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        resps[0].get("cache").and_then(Json::as_str),
        Some("miss"),
        "first sight of the template"
    );
    assert_eq!(
        resps[1].get("cache").and_then(Json::as_str),
        Some("hit"),
        "identical query is a warm hit"
    );

    // The one-shot path: same schema, same IC, fresh optimizer.
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text(IC4).unwrap();
    let report = opt.optimize(oql).unwrap();
    let mut local: Vec<String> = report
        .proper_rewrites()
        .map(|e| e.oql.to_string())
        .collect();
    local.sort();
    for resp in &resps {
        let mut served = wire_rewrites(resp);
        served.sort();
        assert_eq!(served, local, "served rewrites differ from one-shot CLI");
    }
    assert!(local.iter().any(|o| o.contains("x not in Faculty")));
}

#[test]
fn concurrent_mixed_load_hits_cache_and_sheds_nothing() {
    let _g = lock();
    let before = obs::snapshot();
    let addr = start_server(4, 64);
    // 32 concurrent clients: a parameterized family (warm after the
    // first), a second template, and a contradiction.
    let handles: Vec<_> = (0..32)
        .map(|i| {
            std::thread::spawn(move || {
                let oql = match i % 3 {
                    0 => format!("select x.name from x in Person where x.age < {}", 20 + i),
                    1 => "select s.name from s in Student".to_string(),
                    _ => format!(
                        "select f.name from f in Faculty where f.age < {}",
                        10 + i % 10
                    ),
                };
                let resp = roundtrip(addr, &[query_line(&oql)]).remove(0);
                assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "req {i}: {resp:?}");
                let verdict = resp
                    .get("report")
                    .and_then(|r| r.get("verdict"))
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string();
                if i % 3 == 2 {
                    assert_eq!(verdict, "contradiction", "faculty under 30 is empty");
                } else {
                    assert_eq!(verdict, "equivalents");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let metrics = roundtrip(addr, &[r#"{"op":"metrics"}"#.to_string()]).remove(0);
    shutdown(addr);
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)));
    assert!(metrics.get("queue_depth").and_then(Json::as_u64).is_some());
    let stats = metrics
        .get("stats")
        .and_then(|s| s.get("counters"))
        .unwrap();
    let total = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    let delta = obs::snapshot().since(&before);
    assert_eq!(delta.counter(obs::Counter::ServeRequests), 32);
    assert_eq!(delta.counter(obs::Counter::ServeShed), 0);
    assert_eq!(delta.counter(obs::Counter::ServeDeadlineExceeded), 0);
    assert!(
        delta.counter(obs::Counter::PlanCacheHits) >= 1,
        "parameterized family must warm the cache"
    );
    // The wire metrics reply carries the same registry totals.
    assert!(total("serve.requests") >= 32);
    assert!(total("plan_cache.hits") >= 1);
}

#[test]
fn zero_timeout_is_deadline_exceeded() {
    let _g = lock();
    let before = obs::snapshot();
    let addr = start_server(1, 4);
    let line =
        r#"{"op":"query","oql":"select x.name from x in Person where x.age < 29","timeout_ms":0}"#
            .to_string();
    let resp = roundtrip(addr, &[line]).remove(0);
    shutdown(addr);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    let delta = obs::snapshot().since(&before);
    assert_eq!(delta.counter(obs::Counter::ServeDeadlineExceeded), 1);
}

#[test]
fn reload_ic_invalidates_cached_plans_over_the_wire() {
    let _g = lock();
    let before = obs::snapshot();
    let addr = start_server(2, 16);
    let q = query_line("select x.name from x in Person where x.age < 24");
    let reload = format!(
        r#"{{"op":"reload_ic","ic":{}}}"#,
        obs::json_string("ic IC4: Age >= 40 <- faculty(X, N, Age, S, R, Ad).")
    );
    let metrics = r#"{"op":"metrics"}"#.to_string();
    let resps = roundtrip(
        addr,
        &[q.clone(), q.clone(), metrics.clone(), reload, metrics, q],
    );
    shutdown(addr);
    assert_eq!(resps[0].get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(resps[1].get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(resps[3].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(resps[3].get("generation").and_then(Json::as_u64), Some(1));
    // The hit finished an instance; none survives the reload.
    let instances = |m: &Json| {
        m.get("sessions").and_then(Json::as_arr).unwrap()[0]
            .get("cached_instances")
            .and_then(Json::as_u64)
    };
    assert_eq!(instances(&resps[2]), Some(1));
    assert_eq!(instances(&resps[4]), Some(0));
    // After the reload the old plan must not be served again.
    assert_eq!(resps[5].get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(resps[5].get("generation").and_then(Json::as_u64), Some(1));
    let delta = obs::snapshot().since(&before);
    assert!(delta.counter(obs::Counter::PlanCacheInvalidations) >= 1);
}

#[test]
fn protocol_errors_are_structured() {
    let _g = lock();
    let addr = start_server(1, 4);
    let resps = roundtrip(
        addr,
        &[
            "this is not json".to_string(),
            r#"{"op":"frobnicate"}"#.to_string(),
            r#"{"op":"query","session":"nope","oql":"select s.name from s in Student"}"#
                .to_string(),
            r#"{"op":"query"}"#.to_string(),
            r#"{"op":"ping"}"#.to_string(),
        ],
    );
    shutdown(addr);
    assert_eq!(error_kind(&resps[0]), Some("bad_request"));
    assert_eq!(error_kind(&resps[1]), Some("bad_request"));
    assert_eq!(error_kind(&resps[2]), Some("unknown_session"));
    assert_eq!(error_kind(&resps[3]), Some("bad_request"));
    assert_eq!(resps[4].get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn query_responses_carry_deterministic_trace_ids_and_events() {
    let _g = lock();
    let addr = start_server(1, 4);
    let q = "select x.name from x in Person where x.age < 27";
    let plain = query_line(q);
    let traced = format!(
        r#"{{"op":"query","oql":{},"trace":true}}"#,
        obs::json_string(q)
    );
    let resps = roundtrip(addr, &[plain, traced]);
    shutdown(addr);
    // One worker, one connection: the sequence is fully deterministic.
    assert_eq!(
        resps[0].get("trace_id").and_then(Json::as_str),
        Some("default:0:0")
    );
    assert_eq!(
        resps[1].get("trace_id").and_then(Json::as_str),
        Some("default:0:1")
    );
    assert!(resps[0].get("trace").is_none(), "trace only when requested");
    let events = resps[1].get("trace").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names[0], "serve.admission_wait");
    assert!(names.contains(&"cache.lookup"), "events: {names:?}");
    assert!(names.contains(&"pipeline.optimize"), "events: {names:?}");
    // Events carry durations and (for real spans) counter deltas.
    for e in events {
        assert!(e.get("dur_ns").and_then(Json::as_u64).is_some());
        assert!(e.get("start_ns").and_then(Json::as_u64).is_some());
        assert!(e.get("counters").is_some());
    }
}

#[test]
fn metrics_reports_hist_quantiles_queue_hwm_and_wait() {
    let _g = lock();
    let addr = start_server(2, 16);
    let q = query_line("select x.name from x in Person where x.age < 28");
    let resps = roundtrip(addr, &[q.clone(), q, r#"{"op":"metrics"}"#.to_string()]);
    shutdown(addr);
    let metrics = &resps[2];
    assert!(metrics
        .get("queue_depth_hwm")
        .and_then(Json::as_u64)
        .is_some());
    let hist = metrics.get("hist").unwrap();
    // Request-level series plus every pinned stage, quantiles and all.
    let series = hist.get("serve.request").unwrap();
    assert!(series.get("count").and_then(Json::as_u64).unwrap() >= 2);
    for p in ["p50", "p90", "p99", "max"] {
        assert!(
            series.get(p).and_then(Json::as_u64).unwrap() > 0,
            "serve.request {p} must be a positive sample"
        );
    }
    for pinned in ["stage/cache.lookup", "stage/objdb.execute", "serve.wait"] {
        assert!(hist.get(pinned).is_some(), "metrics hist must pin {pinned}");
    }
    assert!(
        hist.get("stage/cache.lookup")
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 2
    );
    // The executor series is pinned at bind time even before any plan
    // runs; histograms are process-global, so another test in this
    // binary may already have fed it. Either way the summary is
    // well-formed: empty ⇒ null quantiles (never a panic), else numbers.
    let exec_series = hist.get("stage/objdb.execute").unwrap();
    if exec_series.get("count").and_then(Json::as_u64) == Some(0) {
        assert_eq!(exec_series.get("p99"), Some(&Json::Null));
    } else {
        assert!(exec_series.get("p99").and_then(Json::as_u64).is_some());
    }
    // Admission wait is accounted both as a counter and a histogram.
    let counters = metrics
        .get("stats")
        .and_then(|s| s.get("counters"))
        .unwrap();
    assert!(counters
        .get("serve.wait_ns")
        .and_then(Json::as_u64)
        .is_some());
    assert!(
        hist.get("serve.wait")
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 2
    );
}

#[test]
fn slow_queries_land_in_the_slowlog() {
    let _g = lock();
    let before = obs::snapshot();
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    // Threshold 0: every request qualifies, making the test deterministic.
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 4,
            slow_ms: 0,
            slowlog_capacity: 2,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run().unwrap());
    let resps = roundtrip(
        addr,
        &[
            query_line("select x.name from x in Person where x.age < 21"),
            query_line("select x.name from x in Person where x.age < 22"),
            query_line("select x.name from x in Person where x.age < 23"),
            r#"{"op":"slowlog"}"#.to_string(),
        ],
    );
    shutdown(addr);
    let slowlog = &resps[3];
    assert_eq!(slowlog.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        slowlog.get("slow_threshold_ms").and_then(Json::as_u64),
        Some(0)
    );
    // Ring of 2: the oldest of the three entries was evicted.
    assert_eq!(slowlog.get("count").and_then(Json::as_u64), Some(2));
    let entries = slowlog.get("entries").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 2);
    assert_eq!(
        entries[0].get("trace_id").and_then(Json::as_str),
        Some("default:0:1")
    );
    for e in entries {
        assert_eq!(e.get("verdict").and_then(Json::as_str), Some("equivalents"));
        assert_eq!(e.get("cache").and_then(Json::as_str), Some("hit"));
        assert!(e.get("template").and_then(Json::as_str).is_some());
        assert!(e.get("elapsed_ns").and_then(Json::as_u64).is_some());
        // Per-stage durations from the trace, and the full report.
        assert!(e
            .get("stages")
            .and_then(|s| s.get("pipeline.optimize"))
            .is_some());
        assert!(e
            .get("explain")
            .and_then(|r| r.get("verdict"))
            .and_then(Json::as_str)
            .is_some());
    }
    let delta = obs::snapshot().since(&before);
    assert_eq!(delta.counter(obs::Counter::ServeSlowQueries), 3);
}

#[test]
fn execute_runs_the_chosen_plan_against_bound_data() {
    let _g = lock();
    let addr = start_server(2, 16);
    let exec_line = |oql: &str| {
        format!(
            r#"{{"op":"query","session":"data","oql":{},"execute":true,"trace":true}}"#,
            obs::json_string(oql)
        )
    };
    let resps = roundtrip(
        addr,
        &[
            // Executing without bound data is a structured error.
            format!(
                r#"{{"op":"query","oql":{},"execute":true}}"#,
                obs::json_string("select s.name from s in Student")
            ),
            format!(
                r#"{{"op":"prepare","session":"data","university":true,"data":true,"ic":{}}}"#,
                obs::json_string(IC4)
            ),
            exec_line("select s.name from s in Student"),
            exec_line("select f.name from f in Faculty where f.age < 25"),
            exec_line(r#"select s.age from s in Student where s.name = "student7""#),
            exec_line(r#"select s.age from s in Student where s.name = "student7""#),
            r#"{"op":"metrics"}"#.to_string(),
        ],
    );
    shutdown(addr);
    assert_eq!(
        resps[0]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
    assert_eq!(resps[1].get("ok"), Some(&Json::Bool(true)));
    let executed = &resps[2];
    assert_eq!(executed.get("ok"), Some(&Json::Bool(true)));
    assert!(
        executed.get("answers").and_then(Json::as_u64).unwrap() > 0,
        "the generated university base has students: {executed:?}"
    );
    assert!(executed.get("plan_index").and_then(Json::as_u64).is_some());
    assert!(executed.get("plan_cost").and_then(Json::as_f64).unwrap() > 0.0);
    let span_names = |resp: &Json| -> Vec<String> {
        let events = resp.get("trace").and_then(Json::as_arr).unwrap();
        let names = events.iter().filter_map(|e| e.get("name"));
        names.filter_map(Json::as_str).map(str::to_string).collect()
    };
    let names = span_names(executed);
    assert!(
        names.iter().any(|n| n == "objdb.execute"),
        "execution must appear in the trace: {names:?}"
    );
    // The first selection on `student.name` builds its index, and says so
    // in its own trace; the repeat finds it built.
    let builds = |resp| {
        span_names(resp)
            .iter()
            .filter(|n| *n == "edb.index_build")
            .count()
    };
    assert_eq!(resps[4].get("answers").and_then(Json::as_u64), Some(1));
    assert_eq!((builds(&resps[4]), builds(&resps[5])), (1, 0));
    // Contradiction: step 4 skips evaluation — zero answers, no plan.
    let refuted = &resps[3];
    assert_eq!(
        refuted
            .get("report")
            .and_then(|r| r.get("verdict"))
            .and_then(Json::as_str),
        Some("contradiction")
    );
    assert_eq!(refuted.get("answers").and_then(Json::as_u64), Some(0));
    assert_eq!(refuted.get("plan_index"), Some(&Json::Null));
    assert_eq!(refuted.get("plan_cost"), Some(&Json::Null));
    let counters = resps[6].get("stats").and_then(|s| s.get("counters"));
    let built = counters.and_then(|c| c.get("edb.index_builds"));
    assert!(built.and_then(Json::as_u64).unwrap() >= 1);
    // Real executions feed the stage/objdb.execute quantiles.
    let hist = resps[6].get("hist").unwrap();
    assert!(
        hist.get("stage/objdb.execute")
            .and_then(|s| s.get("p50"))
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
}

/// Starts a one-worker server over the default university base with
/// `Employee::taxes_withheld` bound to `method`, so a test decides what
/// executing [`METHOD_QUERY`] does on the worker.
fn start_server_with_method(queue: usize, method: sqo_objdb::MethodFn) -> SocketAddr {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, None)
        .unwrap();
    let mut db = sqo_objdb::UniversityConfig::default().build().unwrap().db;
    db.register_method("Employee", "taxes_withheld", method)
        .unwrap();
    registry.get("default").unwrap().attach_db(db);
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: queue,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run().unwrap());
    addr
}

const METHOD_QUERY: &str = "select f.name from f in Faculty where f.taxes_withheld(10%) < 1000";

/// An executing query whose deadline is far beyond any test's runtime.
fn exec_line(oql: &str) -> String {
    format!(
        r#"{{"op":"query","oql":{},"execute":true,"timeout_ms":60000}}"#,
        obs::json_string(oql)
    )
}

/// A panic inside optimize/execute costs its own request only: the
/// connection gets a structured `internal_error` long before its
/// deadline, and the pool's single worker is still there for the next
/// request.
#[test]
fn worker_panic_is_answered_and_the_worker_survives() {
    let _g = lock();
    let addr = start_server_with_method(64, Box::new(|_, _, _| panic!("injected method panic")));
    let before = obs::snapshot();
    let started = std::time::Instant::now();
    let resps = roundtrip(
        addr,
        &[
            exec_line(METHOD_QUERY),
            exec_line("select s.name from s in Student"),
            r#"{"op":"metrics"}"#.to_string(),
        ],
    );
    let took = started.elapsed();
    shutdown(addr);

    assert_eq!(resps[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        resps[0]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("internal_error"),
        "{:?}",
        resps[0]
    );
    assert_eq!(resps[1].get("ok"), Some(&Json::Bool(true)));
    assert!(resps[1].get("answers").and_then(Json::as_u64).unwrap() > 0);
    // The one worker served both: the request after the panic reports
    // its own work only, nothing the unwound one left behind.
    let own = |name: &str| {
        resps[1]
            .get("report")
            .and_then(|r| r.get("stats"))
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    assert_eq!(own("optimizer.queries"), Some(1));
    assert_eq!(own("translate.queries"), Some(1));
    assert!(
        took < std::time::Duration::from_secs(30),
        "the panicked request waited for its deadline ({took:?})"
    );
    let panics = resps[2]
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get("serve.worker_panic"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(panics > before.counter(obs::Counter::ServeWorkerPanic));
}

/// A full queue answers `overloaded` on the socket, in request order.
/// One worker, one queue slot, four executing queries pipelined on one
/// connection: the first holds the worker inside a method that waits on
/// a gate the test holds, the second takes the queue slot, the third and
/// fourth find it full. Once the gate opens the replies arrive as ok,
/// ok, `overloaded`, `overloaded`.
#[test]
fn full_queue_sheds_in_request_order() {
    let _g = lock();
    let (entered_tx, entered) = mpsc::channel::<()>();
    // Closed by dropping the sender: every `recv` returns from then on.
    let (gate, gate_rx) = mpsc::channel::<()>();
    let addr = start_server_with_method(
        1,
        Box::new(move |_, _, _| {
            let _ = entered_tx.send(());
            let _ = gate_rx.recv();
            Ok(sqo_objdb::Value::Int(0))
        }),
    );
    let before = obs::snapshot();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let line = exec_line(METHOD_QUERY);

    // The worker is inside the first request before the rest are sent,
    // so the queue is empty and what happens to each is decided.
    writeln!(stream, "{line}").unwrap();
    entered.recv().unwrap();
    write!(stream, "{line}\n{line}\n{line}\n").unwrap();
    stream.flush().unwrap();
    // The gate opens only after the loop has routed all four: it
    // publishes its counters at the end of the iteration that did.
    let routed = |n| {
        obs::snapshot()
            .since(&before)
            .counter(obs::Counter::ServeRequests)
            == n
    };
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !routed(4) {
        assert!(std::time::Instant::now() < give_up, "requests never routed");
        std::thread::yield_now();
    }
    drop(gate);

    let mut read = || {
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        json::parse(&resp).unwrap()
    };
    let replies: Vec<Json> = (0..4).map(|_| read()).collect();
    // A metrics round trip: every counter bump behind the replies is
    // published before the snapshot.
    writeln!(stream, r#"{{"op":"metrics"}}"#).unwrap();
    assert_eq!(read().get("ok"), Some(&Json::Bool(true)));
    let delta = obs::snapshot().since(&before);
    shutdown(addr);

    for (i, ok) in replies[..2].iter().enumerate() {
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "reply {i}: {ok:?}");
        assert_eq!(
            ok.get("trace_id").and_then(Json::as_str),
            Some(format!("default:0:{i}").as_str())
        );
        assert!(ok.get("answers").and_then(Json::as_u64).unwrap() > 0);
    }
    for (i, shed) in replies[2..].iter().enumerate() {
        assert_eq!(
            error_kind(shed),
            Some("overloaded"),
            "reply {}: {shed:?}",
            i + 2
        );
    }
    assert_eq!(delta.counter(obs::Counter::ServeShed), 2);
    assert_eq!(delta.counter(obs::Counter::ServeRequests), 4);
    assert_eq!(delta.counter(obs::Counter::ServeDeadlineExceeded), 0);
}

#[test]
fn metrics_wire_keys_are_sorted_and_deterministic() {
    let _g = lock();
    let addr = start_server(1, 4);
    let q = query_line("select x.name from x in Person where x.age < 26");
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut raw = |line: &str| {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    let _ = raw(&q);
    let first = raw(r#"{"op":"metrics"}"#);
    let second = raw(r#"{"op":"metrics"}"#);
    shutdown(addr);
    // Serialized key order (not post-parse order) must be sorted: scan
    // the raw wire text for the counter and hist sections.
    let key_positions = |text: &str, keys: &[&str]| -> Vec<usize> {
        keys.iter()
            .map(|k| {
                text.find(&format!("\"{k}\""))
                    .unwrap_or_else(|| panic!("{k} missing"))
            })
            .collect()
    };
    let counters = key_positions(
        &first,
        &[
            "exec.scan",
            "plan_cache.hits",
            "serve.requests",
            "unify.attempts",
        ],
    );
    assert!(counters.windows(2).all(|w| w[0] < w[1]), "counters sorted");
    let hists = key_positions(
        &first,
        &[
            "serve.request",
            "serve.wait",
            "stage/cache.lookup",
            "stage/objdb.execute",
        ],
    );
    assert!(hists.windows(2).all(|w| w[0] < w[1]), "hist keys sorted");
    // Two consecutive metrics snapshots expose the identical key sets in
    // the identical order (values may differ).
    let keys_of = |text: &str| -> Vec<String> {
        let mut keys = Vec::new();
        let bytes = text.as_bytes();
        let mut i = 0;
        while let Some(start) = text[i..].find('"').map(|p| i + p) {
            let end = match text[start + 1..].find('"').map(|p| start + 1 + p) {
                Some(e) => e,
                None => break,
            };
            if bytes.get(end + 1) == Some(&b':') {
                keys.push(text[start + 1..end].to_string());
            }
            i = end + 1;
        }
        keys
    };
    assert_eq!(keys_of(&first), keys_of(&second));
}

#[test]
fn prepare_over_the_wire_creates_sessions() {
    let _g = lock();
    let addr = start_server(1, 4);
    let resps = roundtrip(
        addr,
        &[
            format!(
                r#"{{"op":"prepare","session":"second","university":true,"ic":{}}}"#,
                obs::json_string(IC4)
            ),
            r#"{"op":"query","session":"second","oql":"select f.name from f in Faculty where f.age < 20"}"#
                .to_string(),
            r#"{"op":"metrics"}"#.to_string(),
        ],
    );
    shutdown(addr);
    assert_eq!(resps[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        resps[1]
            .get("report")
            .and_then(|r| r.get("verdict"))
            .and_then(Json::as_str),
        Some("contradiction")
    );
    let sessions = resps[2].get("sessions").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = sessions
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, vec!["default", "second"]);
}

/// Starts a server whose default session is bound to a durable store
/// opened (or recovered) from `dir`.
fn start_store_server(dir: &std::path::Path) -> SocketAddr {
    start_store_server_and_registry(dir).0
}

fn start_store_server_and_registry(dir: &std::path::Path) -> (SocketAddr, Arc<SessionRegistry>) {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    let mut db = sqo_objdb::ObjectDb::open(sqo_odl::fixtures::university_schema(), dir, 4).unwrap();
    sqo_objdb::register_university_methods(&mut db).unwrap();
    registry.get("default").unwrap().attach_db(db);
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
        registry.clone(),
    )
    .unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run().unwrap());
    (addr, registry)
}

/// `metrics` is answered on the event-loop thread, and a worker holds a
/// session's data mutex for a whole plan choice and execute: reading the
/// store generation must not take that mutex, or one `metrics` poll
/// stalls every connection for as long as the slowest running query.
/// Here the test thread is that query.
#[test]
fn metrics_does_not_wait_for_a_running_query() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("sqo_serve_held_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (addr, registry) = start_store_server_and_registry(&dir);
    let create = r#"{"op":"create","class":"Person","attrs":{"name":"held"}}"#;
    let created = roundtrip(addr, &[create.to_string()]);
    assert_eq!(created[0].get("ok"), Some(&Json::Bool(true)));

    // One request on a connection of its own, given five seconds.
    let ask = |line: &str| -> std::io::Result<Json> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
        writeln!(stream, "{line}")?;
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp)?;
        Ok(json::parse(&resp).unwrap())
    };
    let data = registry.get("default").unwrap().data().unwrap();
    let held = data.lock().unwrap();
    let metrics = ask(r#"{"op":"metrics"}"#).expect("metrics waited for the data mutex");
    let ping = ask(r#"{"op":"ping"}"#).expect("the event loop is stalled");
    let generation = held.store_generation();
    drop(held);
    shutdown(addr);

    assert_eq!(ping.get("ok"), Some(&Json::Bool(true)));
    let sessions = metrics.get("sessions").and_then(Json::as_arr).unwrap();
    let reported = sessions[0].get("store_generation").and_then(Json::as_u64);
    assert!(generation > 0);
    assert_eq!(reported, Some(generation));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_backed_writes_persist_across_server_restarts() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("sqo_serve_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Session 1: write over the wire, snapshot, keep writing (WAL tail).
    let addr = start_store_server(&dir);
    let resps = roundtrip(
        addr,
        &[
            r#"{"op":"create","class":"Faculty","attrs":{"name":"wired","age":44,"salary":90000}}"#
                .to_string(),
            r#"{"op":"create","class":"Student","attrs":{"name":"pupil","age":22}}"#.to_string(),
            r#"{"op":"create","class":"Section","attrs":{"number":"s1"}}"#.to_string(),
            r#"{"op":"persist"}"#.to_string(),
            r#"{"op":"create","class":"Student","attrs":{"name":"tail","age":25}}"#.to_string(),
            r#"{"op":"query","oql":"select x.name from x in Student","execute":true}"#.to_string(),
            r#"{"op":"metrics"}"#.to_string(),
        ],
    );
    shutdown(addr);
    for (i, r) in resps.iter().enumerate() {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "request {i}: {r:?}");
    }
    let student_oid = resps[1].get("oid").and_then(Json::as_u64).unwrap();
    let section_oid = resps[2].get("oid").and_then(Json::as_u64).unwrap();
    assert!(
        resps[3]
            .get("snapshot_bytes")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let answers_before = resps[5].get("answers").and_then(Json::as_u64).unwrap();
    assert_eq!(answers_before, 2);
    let sessions = resps[6].get("sessions").and_then(Json::as_arr).unwrap();
    assert!(
        sessions[0]
            .get("store_generation")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );

    // Session 2: recover from the same directory — snapshot plus WAL
    // tail — and verify the same answers come back, then link against
    // recovered OIDs.
    let addr = start_store_server(&dir);
    let resps = roundtrip(
        addr,
        &[
            r#"{"op":"query","oql":"select x.name from x in Student","execute":true}"#.to_string(),
            format!(r#"{{"op":"link","from":{student_oid},"rel":"takes","to":{section_oid}}}"#),
            r#"{"op":"create","class":"Person","attrs":{"name":"late"}}"#.to_string(),
        ],
    );
    shutdown(addr);
    assert_eq!(resps[0].get("answers").and_then(Json::as_u64), Some(2));
    assert_eq!(
        resps[1].get("ok"),
        Some(&Json::Bool(true)),
        "{:?}",
        resps[1]
    );
    // Fresh OIDs allocate past everything recovered.
    let late = resps[2].get("oid").and_then(Json::as_u64).unwrap();
    assert!(late > section_oid);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn write_ops_without_data_or_store_are_clean_errors() {
    let _g = lock();
    let addr = start_server(1, 4);
    let resps = roundtrip(
        addr,
        &[
            r#"{"op":"create","class":"Person"}"#.to_string(),
            r#"{"op":"persist"}"#.to_string(),
            // In-memory data attached via prepare: create works,
            // persist still needs a durable store.
            r#"{"op":"prepare","session":"mem","university":true,"data":true}"#.to_string(),
            r#"{"op":"create","session":"mem","class":"Person","attrs":{"name":"m"}}"#.to_string(),
            r#"{"op":"persist","session":"mem"}"#.to_string(),
        ],
    );
    shutdown(addr);
    for i in [0, 1] {
        assert_eq!(
            resps[i].get("ok"),
            Some(&Json::Bool(false)),
            "{:?}",
            resps[i]
        );
        assert_eq!(
            resps[i]
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
    }
    assert_eq!(
        resps[3].get("ok"),
        Some(&Json::Bool(true)),
        "{:?}",
        resps[3]
    );
    assert_eq!(
        resps[3].get("store_generation").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(
        resps[4].get("ok"),
        Some(&Json::Bool(false)),
        "{:?}",
        resps[4]
    );
}
