//! What the serving loop answers itself: a rewrite-only query whose exact
//! text the session's plan cache has finished. Such an answer does not
//! wait for the admission pool, is the answer a worker would have given,
//! honours its deadline, and takes its place in request order among the
//! answers the pool gives.
#![cfg(unix)]

use semantic_sqo::objdb::{MethodFn, UniversityConfig, Value};
use semantic_sqo::obs;
use semantic_sqo::service::json::{self, Json};
use semantic_sqo::service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The tests read process-wide counters over the wire; one at a time.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const IC4: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";

/// A rewrite-only query with IC4 rewrites.
const TEXT: &str = "select x.name from x in Person where x.age < 25";

/// A university server with IC4, `workers` workers and a queue of
/// `queue`; with `method`, the session has the default object base and
/// `Employee::taxes_withheld` runs it.
fn start(workers: usize, queue: usize, method: Option<MethodFn>) -> (SocketAddr, JoinHandle<()>) {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    if let Some(method) = method {
        let mut db = UniversityConfig::default().build().unwrap().db;
        db.register_method("Employee", "taxes_withheld", method)
            .unwrap();
        registry.get("default").unwrap().attach_db(db);
    }
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity: queue,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run().unwrap());
    (addr, serving)
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").unwrap();
    }

    fn read(&mut self) -> Json {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        json::parse(&resp).unwrap_or_else(|e| panic!("{e}: {resp:?}"))
    }

    fn ask(&mut self, line: &str) -> Json {
        self.send(line);
        self.read()
    }
}

fn query(oql: &str) -> String {
    format!(r#"{{"op":"query","oql":{}}}"#, obs::json_string(oql))
}

fn cache_label(reply: &Json) -> &str {
    reply.get("cache").and_then(Json::as_str).unwrap_or("-")
}

fn error_kind(reply: &Json) -> Option<&str> {
    reply.get("error")?.get("kind")?.as_str()
}

/// A process-wide counter, as a `metrics` reply lists it.
fn counter(metrics: &Json, name: &str) -> u64 {
    let counters = metrics.get("stats").and_then(|s| s.get("counters"));
    counters
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap()
}

/// How many samples a `metrics` reply's `serve.wait` series holds.
fn waits(metrics: &Json) -> u64 {
    let series = metrics.get("hist").and_then(|h| h.get("serve.wait"));
    series
        .and_then(|s| s.get("count"))
        .and_then(Json::as_u64)
        .unwrap()
}

/// Sends `TEXT` until the plan cache has finished it: a miss, then the
/// template hit that fills its instance.
fn finish_text(client: &mut Client) {
    assert_eq!(cache_label(&client.ask(&query(TEXT))), "miss");
    assert_eq!(cache_label(&client.ask(&query(TEXT))), "hit");
}

/// Drops what differs between two answers to one text: the timing, the
/// trace id and the report's `stats` (what each request itself did).
fn scrub(v: &Json) -> Json {
    match v {
        Json::Obj(m) => Json::Obj(
            m.iter()
                .filter(|(k, _)| !matches!(k.as_str(), "elapsed_us" | "trace_id" | "stats"))
                .map(|(k, v)| (k.clone(), scrub(v)))
                .collect(),
        ),
        Json::Arr(a) => Json::Arr(a.iter().map(scrub).collect()),
        other => other.clone(),
    }
}

/// With the only worker held inside a query and the only queue slot
/// taken, a finished rewrite-only text is still answered at once, while a
/// text the cache has not finished is shed.
#[test]
fn a_finished_text_does_not_wait_for_the_pool() {
    let _g = lock();
    let (entered_tx, entered) = mpsc::channel::<()>();
    // Closed by dropping the sender: every `recv` returns from then on.
    let (gate, gate_rx) = mpsc::channel::<()>();
    let (addr, serving) = start(
        1,
        1,
        Some(Box::new(move |_, _, _| {
            let _ = entered_tx.send(());
            let _ = gate_rx.recv();
            Ok(Value::Int(0))
        })),
    );
    let mut other = Client::connect(addr);
    finish_text(&mut other);

    let held_query = format!(
        r#"{{"op":"query","execute":true,"timeout_ms":60000,"oql":{}}}"#,
        obs::json_string("select f.name from f in Faculty where f.taxes_withheld(10%) < 1000")
    );
    let mut held = Client::connect(addr);
    held.send(&held_query);
    entered.recv().unwrap();
    held.send(&held_query);
    let give_up = Instant::now() + Duration::from_secs(30);
    while other
        .ask(r#"{"op":"metrics"}"#)
        .get("queue_depth")
        .and_then(Json::as_u64)
        != Some(1)
    {
        assert!(Instant::now() < give_up, "the second query never queued");
        std::thread::sleep(Duration::from_millis(5));
    }

    let asked = Instant::now();
    let hit = other.ask(&query(TEXT));
    let took = asked.elapsed();
    assert_eq!(hit.get("ok"), Some(&Json::Bool(true)), "{hit:?}");
    assert_eq!(cache_label(&hit), "hit");
    assert!(took < Duration::from_secs(1), "answered after {took:?}");
    let unfinished = other.ask(&query("select x.age from x in Student where x.age < 21"));
    assert_eq!(
        error_kind(&unfinished),
        Some("overloaded"),
        "{unfinished:?}"
    );

    drop(gate);
    for _ in 0..2 {
        let done = held.read();
        assert_eq!(done.get("ok"), Some(&Json::Bool(true)), "{done:?}");
    }
    other.ask(r#"{"op":"shutdown"}"#);
    serving.join().unwrap();
}

/// The repeat the loop answers is the reply of the fill a worker gave,
/// apart from the timing, the trace id and what each request did; it
/// did one lookup, no Step 2, and never queued.
#[test]
fn a_loop_answer_is_the_pooled_answer() {
    let _g = lock();
    let (addr, serving) = start(2, 64, None);
    let mut c = Client::connect(addr);
    assert_eq!(cache_label(&c.ask(&query(TEXT))), "miss");
    let metrics = r#"{"op":"metrics"}"#;
    let before_fill = waits(&c.ask(metrics));
    let fill = c.ask(&query(TEXT));
    let after_fill = waits(&c.ask(metrics));
    let repeat = c.ask(&query(TEXT));
    let after_repeat = waits(&c.ask(metrics));
    c.ask(r#"{"op":"shutdown"}"#);
    serving.join().unwrap();

    assert_eq!(after_fill, before_fill + 1, "the fill was queued");
    assert_eq!(after_repeat, after_fill, "the repeat was not");
    assert_eq!(cache_label(&fill), "hit");
    assert_eq!(scrub(&repeat), scrub(&fill));
    let stats = repeat.get("report").and_then(|r| r.get("stats")).unwrap();
    let own = stats.get("counters").unwrap();
    assert_eq!(own.get("translate.queries").and_then(Json::as_u64), Some(0));
    assert_eq!(
        own.get("plan_cache.instance_hits").and_then(Json::as_u64),
        Some(1)
    );
    let lookups = stats.get("spans").and_then(|s| s.get("cache.lookup"));
    assert_eq!(
        lookups.and_then(|l| l.get("count")).and_then(Json::as_u64),
        Some(1)
    );
    let filled = fill.get("report").and_then(|r| r.get("stats")).unwrap();
    let own = filled.get("counters").unwrap();
    assert_eq!(own.get("translate.queries").and_then(Json::as_u64), Some(1));
}

/// A finished text whose deadline has passed is answered
/// `deadline_exceeded` and counted, never answered `ok`.
#[test]
fn an_expired_text_hit_is_deadline_exceeded() {
    let _g = lock();
    let (addr, serving) = start(1, 4, None);
    let mut c = Client::connect(addr);
    finish_text(&mut c);
    let metrics = r#"{"op":"metrics"}"#;
    let before = counter(&c.ask(metrics), "serve.deadline_exceeded");
    let expired = format!(
        r#"{{"op":"query","timeout_ms":0,"oql":{}}}"#,
        obs::json_string(TEXT)
    );
    let reply = c.ask(&expired);
    let after = counter(&c.ask(metrics), "serve.deadline_exceeded");
    c.ask(r#"{"op":"shutdown"}"#);
    serving.join().unwrap();
    assert_eq!(error_kind(&reply), Some("deadline_exceeded"), "{reply:?}");
    assert_eq!(after, before + 1);
}

/// Answers the loop gives and answers the pool gives leave in request
/// order, whichever is ready first: in one write, a ping behind queued
/// queries; in the next, a repeat of the now finished text behind a
/// queued miss.
#[test]
fn pipelined_loop_and_pool_answers_keep_request_order() {
    let _g = lock();
    let (addr, serving) = start(1, 64, None);
    let a = query(TEXT);
    let b = query("select x.age from x in Student where x.age < 21");
    let c_miss = query("select x.name from x in Student where x.age < 22");
    let ping = r#"{"op":"ping"}"#;
    let mut c = Client::connect(addr);
    let batch = [&a, &a, &a, &b, &a].map(String::as_str);
    write!(c.stream, "{}\n{ping}\n", batch.join("\n")).unwrap();
    let replies: Vec<Json> = (0..6).map(|_| c.read()).collect();
    write!(c.stream, "{c_miss}\n{a}\n").unwrap();
    let behind: Vec<Json> = (0..2).map(|_| c.read()).collect();
    c.ask(r#"{"op":"shutdown"}"#);
    serving.join().unwrap();

    let labels: Vec<&str> = behind.iter().map(cache_label).collect();
    assert_eq!(labels, ["miss", "hit"]);
    assert_eq!(
        behind[1].get("trace_id").and_then(Json::as_str),
        Some("default:0:6")
    );

    let labels: Vec<&str> = replies[..5].iter().map(cache_label).collect();
    assert_eq!(labels, ["miss", "hit", "hit", "miss", "hit"]);
    let seqs: Vec<&str> = replies[..5]
        .iter()
        .map(|r| r.get("trace_id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        seqs,
        [
            "default:0:0",
            "default:0:1",
            "default:0:2",
            "default:0:3",
            "default:0:4"
        ]
    );
    assert_eq!(replies[5].get("op").and_then(Json::as_str), Some("ping"));
}
