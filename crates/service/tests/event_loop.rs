//! Wire tests of the serving loop: pipelined batching, adversarial
//! connections, and the counters a fixed workload must leave behind.
//!
//! Tests assert on obs counter deltas (process-global), so every test in
//! this binary serializes through one lock.

use sqo_obs as obs;
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const IC4: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";

fn start_server(cfg: ServerConfig) -> SocketAddr {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    let server = Server::bind(cfg, registry).unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run().unwrap());
    addr
}

fn event_loop_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Sends each line on one connection, one at a time, returning the
/// parsed responses.
fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<Json> {
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    lines
        .iter()
        .map(|l| {
            writeln!(stream, "{l}").unwrap();
            stream.flush().unwrap();
            read_response(&mut reader)
        })
        .collect()
}

fn read_response(reader: &mut impl BufRead) -> Json {
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(!resp.is_empty(), "connection closed without a response");
    json::parse(&resp).unwrap()
}

fn shutdown(addr: SocketAddr) {
    let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
}

fn query_line(oql: &str) -> String {
    format!(r#"{{"op":"query","oql":{}}}"#, obs::json_string(oql))
}

/// Drops the per-request volatile fields (elapsed time, stage timings)
/// so two deliveries of the same request can be compared byte-for-byte
/// on everything that matters.
fn normalized(resp: &Json) -> Json {
    fn strip(j: &Json, drop_keys: &[&str]) -> Json {
        match j {
            Json::Obj(m) => Json::Obj(
                m.iter()
                    .filter(|(k, _)| !drop_keys.contains(&k.as_str()))
                    .map(|(k, v)| (k.clone(), strip(v, drop_keys)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(|i| strip(i, drop_keys)).collect()),
            other => other.clone(),
        }
    }
    strip(resp, &["elapsed_us", "stats"])
}

/// Satellite: N requests written in one TCP segment come back as N
/// in-order responses with payloads identical to one-at-a-time
/// delivery.
#[test]
fn pipelined_batch_matches_one_at_a_time() {
    let _g = lock();
    // One worker makes the cache-outcome sequence (miss, hit, hit, ...)
    // deterministic regardless of how requests are batched.
    let single_worker = || ServerConfig {
        workers: 1,
        ..event_loop_config()
    };

    let lines: Vec<String> = (0..8)
        .map(|i| {
            query_line(&format!(
                "select x.name from x in Person where x.age < {}",
                20 + i
            ))
        })
        .chain([r#"{"op":"ping"}"#.to_string()])
        .collect();

    // Reference: fresh server, one request at a time.
    let addr = start_server(single_worker());
    let one_at_a_time = roundtrip(addr, &lines);
    shutdown(addr);

    // Pipelined: a second fresh server (same trace-id sequence), every
    // request in a single write.
    let addr = start_server(single_worker());
    let mut stream = connect(addr);
    let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
    stream.write_all(batch.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let pipelined: Vec<Json> = lines.iter().map(|_| read_response(&mut reader)).collect();
    shutdown(addr);

    assert_eq!(pipelined.len(), one_at_a_time.len());
    for (i, (p, o)) in pipelined.iter().zip(&one_at_a_time).enumerate() {
        assert_eq!(
            normalized(p),
            normalized(o),
            "response {i} differs between pipelined and sequential delivery"
        );
    }
    // In-order: the deterministic trace ids must come back 0..N.
    for (i, p) in pipelined.iter().take(8).enumerate() {
        assert_eq!(
            p.get("trace_id").and_then(Json::as_str),
            Some(format!("default:0:{i}").as_str()),
            "response {i} out of order"
        );
    }
}

/// Satellite: a slow-loris connection dribbling a request byte-by-byte
/// holds framer state, never a worker — a fast client on the same
/// server stays snappy, and the dribbled request still gets its answer.
#[test]
fn slow_loris_never_stalls_fast_clients() {
    let _g = lock();
    let addr = start_server(ServerConfig {
        workers: 2,
        ..event_loop_config()
    });

    let line = query_line("select x.name from x in Person where x.age < 24");
    let bytes = format!("{line}\n").into_bytes();
    let (head, tail) = bytes.split_at(bytes.len() / 2);

    let mut slow = connect(addr);
    slow.write_all(head).unwrap();
    slow.flush().unwrap();

    // A dangling frame holds no thread: 32 full round trips while it
    // dangles.
    let started = Instant::now();
    for _ in 0..32 {
        let resps = roundtrip(addr, &[r#"{"op":"ping"}"#.to_string()]);
        assert_eq!(resps[0].get("ok"), Some(&Json::Bool(true)));
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "fast clients stalled behind a slow-loris peer"
    );

    // The dribble completes and is answered normally.
    slow.write_all(tail).unwrap();
    slow.flush().unwrap();
    let resp = read_response(&mut BufReader::new(slow.try_clone().unwrap()));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(resp.get("op").and_then(Json::as_str), Some("query"));
    shutdown(addr);
}

/// Every frame is parsed on the loop thread, so the cost of the largest
/// frame the server accepts is a latency every connection pays: a frame
/// just inside `max_frame_bytes` is answered, and a `ping` on a second
/// connection issued while it is in flight returns, each within 1 s.
/// A parse superlinear in the frame size misses both bounds by seconds.
#[test]
fn a_full_size_frame_does_not_hold_up_other_connections() {
    let _g = lock();
    let cfg = event_loop_config();
    let (head, tail) = (r#"{"op":"ping","pad":""#, "\"}\n");
    let pad = "x".repeat(cfg.max_frame_bytes - 64 - head.len() - (tail.len() - 1));
    let frame = [head, &pad, tail].concat();
    assert_eq!(frame.len() - 1, cfg.max_frame_bytes - 64);
    let addr = start_server(cfg);

    let mut big = connect(addr);
    let mut bystander = connect(addr);
    big.write_all(frame.as_bytes()).unwrap();
    big.flush().unwrap();
    let sent = Instant::now();
    writeln!(bystander, r#"{{"op":"ping"}}"#).unwrap();
    bystander.flush().unwrap();
    let pong = read_response(&mut BufReader::new(bystander.try_clone().unwrap()));
    let bystander_waited = sent.elapsed();
    let reply = read_response(&mut BufReader::new(big.try_clone().unwrap()));
    let frame_waited = sent.elapsed();
    shutdown(addr);

    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("op").and_then(Json::as_str), Some("ping"));
    assert!(
        bystander_waited < Duration::from_secs(1),
        "a ping waited {bystander_waited:?} behind another connection's frame"
    );
    assert!(
        frame_waited < Duration::from_secs(1),
        "a {}-byte frame took {frame_waited:?} to answer",
        frame.len() - 1
    );
}

/// Satellite: an endless unterminated frame is cut off at the
/// configured bound with a structured error; memory stays bounded and
/// other connections are unaffected.
#[test]
fn oversized_frames_get_a_bounded_error() {
    let _g = lock();
    let addr = start_server(ServerConfig {
        max_frame_bytes: 4096,
        ..event_loop_config()
    });

    let mut evil = connect(addr);
    let blob = vec![b'a'; 64 * 1024]; // 16x the limit, no newline ever
                                      // The server may close mid-write once the limit trips; that broken
                                      // pipe is the bounded-memory path working.
    let _ = evil.write_all(&blob);
    let _ = evil.flush();
    let mut resp = String::new();
    let n = BufReader::new(evil.try_clone().unwrap())
        .read_line(&mut resp)
        .unwrap_or(0);
    if n > 0 {
        let parsed = json::parse(&resp).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            parsed
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
        let msg = parsed
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("4096"), "error names the bound: {msg}");
        // And the connection is closed after the error line.
        let mut rest = Vec::new();
        let _ = evil.read_to_end(&mut rest);
        assert!(rest.is_empty());
    }

    // A well-behaved client on the same server is unaffected.
    let resps = roundtrip(
        addr,
        &[query_line(
            "select x.name from x in Person where x.age < 22",
        )],
    );
    assert_eq!(resps[0].get("ok"), Some(&Json::Bool(true)));
    shutdown(addr);
}

/// Satellite: garbage bytes — non-JSON text and invalid UTF-8 — each
/// get a structured `bad_request` without harming the server.
#[test]
fn garbage_bytes_get_structured_errors() {
    let _g = lock();
    let addr = start_server(event_loop_config());

    // Valid UTF-8, invalid JSON: an error response, connection stays up.
    let resps = roundtrip(
        addr,
        &[
            "this is not json".to_string(),
            r#"{"op":"ping"}"#.to_string(),
        ],
    );
    assert_eq!(resps[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        resps[0]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
    assert_eq!(resps[1].get("ok"), Some(&Json::Bool(true)), "conn survives");

    // Invalid UTF-8: an error response, then the connection closes.
    let mut bin = connect(addr);
    bin.write_all(b"\xff\xfe\xfd\n").unwrap();
    bin.flush().unwrap();
    let mut reader = BufReader::new(bin.try_clone().unwrap());
    let resp = read_response(&mut reader);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    let mut rest = Vec::new();
    let _ = bin.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection closes after invalid UTF-8");

    let resps = roundtrip(addr, &[r#"{"op":"ping"}"#.to_string()]);
    assert_eq!(resps[0].get("ok"), Some(&Json::Bool(true)));
    shutdown(addr);
}

/// Satellite: disconnecting mid-request — both mid-frame and with a
/// query in flight — leaves the server fully healthy.
#[test]
fn mid_request_disconnect_leaves_server_healthy() {
    let _g = lock();
    let addr = start_server(event_loop_config());

    // Half a frame, then vanish.
    let mut half = connect(addr);
    half.write_all(b"{\"op\":\"que").unwrap();
    half.flush().unwrap();
    drop(half);

    // A full query, then vanish without reading the response: the
    // worker's completion finds no connection and is dropped.
    let mut fire_and_forget = connect(addr);
    writeln!(
        fire_and_forget,
        "{}",
        query_line("select x.name from x in Person where x.age < 23")
    )
    .unwrap();
    fire_and_forget.flush().unwrap();
    drop(fire_and_forget);

    // Give the dropped query time to complete against a gone peer.
    std::thread::sleep(Duration::from_millis(200));
    for _ in 0..4 {
        let resps = roundtrip(
            addr,
            &[
                query_line("select x.name from x in Person where x.age < 23"),
                r#"{"op":"metrics"}"#.to_string(),
            ],
        );
        assert_eq!(resps[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resps[1].get("ok"), Some(&Json::Bool(true)));
    }
    shutdown(addr);
}

/// A fixed workload leaves every `serve.*` and `plan_cache.*` counter
/// at the workload's arithmetic, and `metrics` reports the session's
/// cached templates.
#[test]
fn counters_match_the_workloads_arithmetic() {
    let _g = lock();
    let before = obs::snapshot();
    let addr = start_server(ServerConfig {
        workers: 2,
        ..event_loop_config()
    });
    let mut lines: Vec<String> = Vec::new();
    // A parameterized family: one miss, then hits.
    for i in 0..6 {
        lines.push(query_line(&format!(
            "select x.name from x in Person where x.age < {}",
            20 + i
        )));
    }
    // A second template.
    lines.push(query_line(
        "select x.age from x in Student where x.age < 25",
    ));
    // Invalidate (2 cached templates drop), then repopulate one.
    lines.push(format!(
        r#"{{"op":"reload_ic","ic":{}}}"#,
        obs::json_string(IC4)
    ));
    lines.push(query_line(
        "select x.name from x in Person where x.age < 21",
    ));
    // Trailing metrics round trip forces every prior counter bump to be
    // flushed before we snapshot.
    lines.push(r#"{"op":"metrics"}"#.to_string());
    let resps = roundtrip(addr, &lines);
    shutdown(addr);
    for r in &resps {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    }
    let metrics = resps.last().unwrap();
    let session = metrics.get("sessions").and_then(Json::as_arr).unwrap()[0].clone();
    assert_eq!(
        session.get("cached_templates").and_then(Json::as_u64),
        Some(1),
        "one template repopulated after the reload"
    );

    // 8 queries, 5 hits (ages 21..25 of the first family), 3 misses
    // (family, second template, post-reload), 2 invalidated entries.
    let delta = obs::snapshot().since(&before);
    assert_eq!(delta.counter(obs::Counter::ServeRequests), 8);
    assert_eq!(delta.counter(obs::Counter::ServeShed), 0);
    assert_eq!(delta.counter(obs::Counter::ServeDeadlineExceeded), 0);
    assert_eq!(delta.counter(obs::Counter::PlanCacheHits), 5);
    assert_eq!(delta.counter(obs::Counter::PlanCacheRebinds), 0);
    assert_eq!(delta.counter(obs::Counter::PlanCacheMisses), 3);
    assert_eq!(delta.counter(obs::Counter::PlanCacheInvalidations), 2);
}
