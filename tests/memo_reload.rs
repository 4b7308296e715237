//! The Step-3 structure memo lives and dies with its compiled context: a
//! served session answers a miss and a rebind from one memo, `reload_ic`
//! moves the IC's threshold, and the next reply to the same query attaches
//! the *new* residue head — nothing staged against the old constraints
//! survives the reload.

use sqo_obs as obs;
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn range_ic(threshold: i64) -> String {
    format!("ic R: Age >= {threshold} <- faculty(X, N, Age, S, R, Ad).")
}

#[test]
fn reload_ic_replaces_the_structure_memo_with_its_context() {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(&range_ic(30)))
        .unwrap();
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: String| {
        writeln!(stream, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        json::parse(&resp).unwrap_or_else(|e| panic!("{e}: {resp}"))
    };
    let query = |age: i64| {
        format!(
            r#"{{"op":"query","oql":{}}}"#,
            obs::json_string(&format!(
                "select x.name from x in Faculty where x.age > {age}"
            ))
        )
    };
    let cache = |r: &Json| r.get("cache").and_then(Json::as_str).map(str::to_string);
    // The OQL text of every equivalent the reply lists.
    let rewrites = |r: &Json| -> Vec<String> {
        r.get("report")
            .and_then(|r| r.get("equivalents"))
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("reply lists equivalents: {r:?}"))
            .iter()
            .map(|e| e.get("oql").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let attaches = |r: &Json, bound: &str| rewrites(r).iter().any(|oql| oql.contains(bound));

    // Below the threshold the residue head is a new restriction.
    let miss = ask(query(20));
    assert_eq!(cache(&miss).as_deref(), Some("miss"), "{miss:?}");
    assert!(attaches(&miss, "x.age >= 30"), "{:?}", rewrites(&miss));

    // Above it the head is implied: a rebind, searched on the warm memo,
    // with nothing to attach.
    let rebind = ask(query(40));
    assert_eq!(cache(&rebind).as_deref(), Some("rebind"), "{rebind:?}");
    assert!(!attaches(&rebind, "x.age >="), "{:?}", rewrites(&rebind));

    let reloaded = ask(format!(
        r#"{{"op":"reload_ic","ic":{}}}"#,
        obs::json_string(&range_ic(50))
    ));
    assert_eq!(reloaded.get("ok"), Some(&Json::Bool(true)), "{reloaded:?}");

    // Same query, same structure, new context: 40 is now below the
    // threshold and the reply carries the new head, not the memoized one.
    let after = ask(query(40));
    assert_eq!(cache(&after).as_deref(), Some("miss"), "{after:?}");
    assert!(attaches(&after, "x.age >= 50"), "{:?}", rewrites(&after));
    assert!(!attaches(&after, "x.age >= 30"), "{:?}", rewrites(&after));

    ask(r#"{"op":"shutdown"}"#.to_string());
    serving.join().unwrap();
}
