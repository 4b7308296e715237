//! A slow-log entry's `stages` holds one key per span name, valued at the
//! name's total over the request's trace: a miss probes the plan cache
//! twice (by text, then by template), and a JSON reader keeps only one
//! value per key.
#![cfg(unix)]

use semantic_sqo::service::json::{self, Json};
use semantic_sqo::service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[test]
fn a_miss_has_one_cache_lookup_stage_worth_both_probes() {
    let registry = Arc::new(SessionRegistry::new());
    let ic4 = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";
    registry
        .prepare("default", SessionSpec::University, Some(ic4))
        .unwrap();
    // Threshold 0: every request is slow.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        slow_ms: 0,
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg, registry).unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run().unwrap());
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| {
        writeln!(stream, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    let reply = ask(
        r#"{"op":"query","trace":true,"oql":"select x.name from x in Person where x.age < 25"}"#,
    );
    let slowlog = ask(r#"{"op":"slowlog"}"#);
    ask(r#"{"op":"shutdown"}"#);
    serving.join().unwrap();

    let reply = json::parse(&reply).unwrap();
    assert_eq!(reply.get("cache").and_then(Json::as_str), Some("miss"));
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for ev in reply.get("trace").and_then(Json::as_arr).unwrap() {
        let name = ev.get("name").and_then(Json::as_str).unwrap().to_string();
        *totals.entry(name).or_default() += ev.get("dur_ns").and_then(Json::as_u64).unwrap();
    }
    let probes = reply.get("trace").and_then(Json::as_arr).unwrap().iter();
    let probes = probes.filter(|ev| ev.get("name").and_then(Json::as_str) == Some("cache.lookup"));
    assert_eq!(probes.count(), 2, "a miss probes by text, then by template");

    // The entry's `stages` object is flat: read its pairs off the raw
    // line, where a repeated key is still visible.
    let start = slowlog.find(r#""stages":{"#).unwrap() + r#""stages":{"#.len();
    let body = &slowlog[start..start + slowlog[start..].find('}').unwrap()];
    let stages: Vec<(String, u64)> = body
        .split(',')
        .map(|kv| {
            let (k, v) = kv.rsplit_once(':').unwrap();
            (k.trim_matches('"').to_string(), v.parse().unwrap())
        })
        .collect();
    let keys: Vec<&str> = stages.iter().map(|(k, _)| k.as_str()).collect();
    let lookups = keys.iter().filter(|&&k| k == "cache.lookup").count();
    assert_eq!(lookups, 1, "one cache.lookup key: {keys:?}");
    assert_eq!(stages.into_iter().collect::<BTreeMap<_, _>>(), totals);
}
