//! What one connection may cost the server: a client that pipelines and
//! never reads holds a few MiB of replies and no more, and cannot keep
//! the serving loop from a bystander; a client that shuts down its write
//! half still gets every reply to what it sent.
#![cfg(unix)]

use semantic_sqo::obs;
use semantic_sqo::service::json::{self, Json};
use semantic_sqo::service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The flood test measures the process's memory; nothing else runs then.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const IC4: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";

/// A rewrite-only query with IC4 rewrites (a reply of about 2 KB).
const TEXT: &str = "select x.name from x in Person where x.age < 25";

fn start() -> (SocketAddr, JoinHandle<()>) {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg, registry).unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run().unwrap());
    (addr, serving)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

fn query_line() -> String {
    format!(r#"{{"op":"query","oql":{}}}"#, obs::json_string(TEXT))
}

/// Sends `line` on a connection of its own and returns the reply.
fn ask(addr: SocketAddr, line: &str) -> Json {
    let (mut stream, mut reader) = connect(addr);
    writeln!(stream, "{line}").unwrap();
    json::parse(&read_line(&mut reader)).unwrap()
}

/// Makes `TEXT` a finished text of the session's plan cache.
fn finish_text(addr: SocketAddr) {
    let (mut stream, mut reader) = connect(addr);
    for _ in 0..2 {
        writeln!(stream, "{}", query_line()).unwrap();
        read_line(&mut reader);
    }
}

/// The process's resident set, in KiB.
#[cfg(target_os = "linux")]
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// 100 000 pipelined finished texts, left unread: the server stops
/// reading the flooder once its replies back up, stays small, answers a
/// bystander at once, and delivers every reply in order once the flooder
/// reads.
#[cfg(target_os = "linux")]
#[test]
fn a_client_that_never_reads_cannot_grow_the_server() {
    const REQUESTS: usize = 100_000;
    const PER_WRITE: usize = 1_000;
    let _g = lock();
    let (addr, serving) = start();
    finish_text(addr);
    let rss_before = vm_rss_kib();
    let routed_before = obs::snapshot();

    let (flooder, mut replies) = connect(addr);
    let mut writer = flooder.try_clone().unwrap();
    let sending = std::thread::spawn(move || {
        let chunk = format!("{}\n", query_line()).repeat(PER_WRITE);
        for _ in 0..REQUESTS / PER_WRITE {
            writer.write_all(chunk.as_bytes()).unwrap();
        }
    });
    // Wait until the server has stopped taking the flooder's requests (or
    // took them all).
    let routed = || {
        let since = obs::snapshot().since(&routed_before);
        since.counter(obs::Counter::ServeRequests)
    };
    let give_up = Instant::now() + Duration::from_secs(120);
    let mut last = u64::MAX;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = routed();
        if now == last || now >= REQUESTS as u64 {
            break;
        }
        assert!(Instant::now() < give_up, "the server never settled");
        last = now;
    }
    let pinged = Instant::now();
    let pong = ask(addr, r#"{"op":"ping"}"#);
    let ping_took = pinged.elapsed();
    // After the ping: a loop that was still busy with the flood is done
    // with the batch it held by the time it answers.
    let grown_mib = vm_rss_kib().saturating_sub(rss_before) / 1024;
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    assert!(grown_mib < 48, "the server grew by {grown_mib} MiB");
    assert!(
        ping_took < Duration::from_millis(250),
        "a bystander's ping took {ping_took:?}"
    );

    // Trace ids number a session's queries: 0 and 1 finished the text.
    for i in 0..REQUESTS {
        let line = read_line(&mut replies);
        let id = format!(r#""trace_id":"default:0:{}""#, i + 2);
        assert!(
            line.starts_with(r#"{"ok":true,"op":"query""#) && line.contains(&id),
            "reply {i}: {line:?}"
        );
    }
    sending.join().unwrap();
    ask(addr, r#"{"op":"shutdown"}"#);
    serving.join().unwrap();
}

/// A ping, a miss and a finished text, then the client's write half
/// shut: three replies in order, then the end of the stream.
#[test]
fn a_half_closed_client_gets_every_reply() {
    let _g = lock();
    let (addr, serving) = start();
    finish_text(addr);
    let (mut stream, mut reader) = connect(addr);
    let miss = format!(
        r#"{{"op":"query","oql":{}}}"#,
        obs::json_string("select x.age from x in Student where x.age < 21")
    );
    write!(stream, "{{\"op\":\"ping\"}}\n{miss}\n{}\n", query_line()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    let replies: Vec<Json> = (0..3)
        .map(|i| {
            let line = read_line(&mut reader);
            json::parse(&line).unwrap_or_else(|e| panic!("reply {i}: {e}: {line:?}"))
        })
        .collect();
    assert_eq!(replies[0].get("op").and_then(Json::as_str), Some("ping"));
    let cache = |r: &Json| r.get("cache").and_then(Json::as_str).map(str::to_owned);
    assert_eq!(cache(&replies[1]).as_deref(), Some("miss"));
    assert_eq!(cache(&replies[2]).as_deref(), Some("hit"));
    assert_eq!(
        read_line(&mut reader),
        "",
        "the server closes after the last reply"
    );
    ask(addr, r#"{"op":"shutdown"}"#);
    serving.join().unwrap();
}
